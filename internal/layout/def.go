package layout

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"gdsiiguard/internal/geom"
	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/tech"
)

// WriteDEF emits the layout as a DEF (Design Exchange Format) subset:
// DIEAREA, ROW statements, PINS with placed locations, COMPONENTS with
// placements, and NETS with full connectivity. ReadDEF round-trips it.
func WriteDEF(w io.Writer, l *Layout) error {
	bw := bufio.NewWriter(w)
	lib := l.Lib()
	nl := l.Netlist

	fmt.Fprintf(bw, "VERSION 5.8 ;\nDESIGN %s ;\nUNITS DISTANCE MICRONS %d ;\n",
		nl.Name, lib.DBUPerMicron)
	core := l.CoreRect()
	fmt.Fprintf(bw, "DIEAREA ( %d %d ) ( %d %d ) ;\n",
		core.Lo.X, core.Lo.Y, core.Hi.X, core.Hi.Y)
	for r := 0; r < l.NumRows; r++ {
		o := l.SiteDBU(r, 0)
		fmt.Fprintf(bw, "ROW row_%d %s %d %d N DO %d BY 1 STEP %d 0 ;\n",
			r, lib.Site.Name, o.X, o.Y, l.SitesPerRow, lib.Site.Width)
	}

	fmt.Fprintf(bw, "PINS %d ;\n", len(nl.Ports))
	for _, p := range nl.Ports {
		dir := "INPUT"
		if p.Dir == netlist.Out {
			dir = "OUTPUT"
		}
		pos, ok := l.PortPos[p.Name]
		if ok {
			fmt.Fprintf(bw, "- %s + NET %s + DIRECTION %s + PLACED ( %d %d ) N ;\n",
				p.Name, p.Name, dir, pos.X, pos.Y)
		} else {
			fmt.Fprintf(bw, "- %s + NET %s + DIRECTION %s ;\n", p.Name, p.Name, dir)
		}
	}
	bw.WriteString("END PINS\n")

	fmt.Fprintf(bw, "COMPONENTS %d ;\n", len(nl.Insts))
	for _, in := range nl.Insts {
		p := l.PlacementOf(in)
		if p.Placed {
			pos := l.SiteDBU(p.Row, p.Site)
			status := "PLACED"
			if in.Fixed {
				status = "FIXED"
			}
			fmt.Fprintf(bw, "- %s %s + %s ( %d %d ) N ;\n",
				in.Name, in.Master.Name, status, pos.X, pos.Y)
		} else {
			fmt.Fprintf(bw, "- %s %s + UNPLACED ;\n", in.Name, in.Master.Name)
		}
	}
	bw.WriteString("END COMPONENTS\n")

	fmt.Fprintf(bw, "NETS %d ;\n", len(nl.Nets))
	for _, n := range nl.Nets {
		fmt.Fprintf(bw, "- %s", n.Name)
		writeTerm := func(t netlist.Terminal) {
			if t.IsPort() {
				fmt.Fprintf(bw, " ( PIN %s )", t.Port.Name)
			} else {
				fmt.Fprintf(bw, " ( %s %s )", t.Inst.Name, t.Pin)
			}
		}
		if n.HasDriver() {
			writeTerm(n.Driver)
		}
		for _, s := range n.Sinks {
			writeTerm(s)
		}
		if n.IsClock {
			bw.WriteString(" + USE CLOCK")
		}
		bw.WriteString(" ;\n")
	}
	bw.WriteString("END NETS\nEND DESIGN\n")
	return bw.Flush()
}

// WriteDEFString renders the layout as DEF text.
func WriteDEFString(l *Layout) string {
	var b strings.Builder
	_ = WriteDEF(&b, l)
	return b.String()
}

// ReadDEF parses a DEF subset produced by WriteDEF (or equivalent) and
// reconstructs the layout and its netlist over the given library.
func ReadDEF(r io.Reader, lib *tech.Library) (*Layout, error) {
	p := &defParser{toks: defTokens(r), lib: lib}
	return p.parse()
}

// ReadDEFString is a convenience wrapper over ReadDEF.
func ReadDEFString(s string, lib *tech.Library) (*Layout, error) {
	return ReadDEF(strings.NewReader(s), lib)
}

// maxDEFSites bounds the core a DEF may declare (rows × sites per row).
// The occupancy grid is allocated up front at 4 bytes a site, so without a
// bound a few bytes of "DO n" could demand any amount of memory. The
// largest generated design, SoC_1M, has 2.6·10⁷ sites.
const maxDEFSites = 1 << 26

type defParser struct {
	toks []string
	pos  int
	lib  *tech.Library

	nl        *netlist.Netlist
	rows      []geom.Point // origin of each row
	rowSites  int
	dieLo     geom.Point
	placeJobs []placeJob
	portJobs  []portJob
}

type placeJob struct {
	inst  string
	x, y  int64
	fixed bool
}

type portJob struct {
	name string
	x, y int64
}

func (p *defParser) parse() (*Layout, error) {
	design := "design"
	for !p.eof() {
		tok := p.next()
		switch tok {
		case "VERSION":
			p.skipTo(";")
		case "UNITS":
			if err := p.parseUnits(); err != nil {
				return nil, err
			}
		case "DESIGN":
			design = p.next()
			p.skipTo(";")
		case "DIEAREA":
			lo, err := p.parenPoint()
			if err != nil {
				return nil, err
			}
			if _, err := p.parenPoint(); err != nil {
				return nil, err
			}
			p.dieLo = lo
			p.skipTo(";")
		case "ROW":
			if err := p.parseRow(); err != nil {
				return nil, err
			}
		case "PINS":
			p.ensureNetlist(design)
			if err := p.parsePins(); err != nil {
				return nil, err
			}
		case "COMPONENTS":
			p.ensureNetlist(design)
			if err := p.parseComponents(); err != nil {
				return nil, err
			}
		case "NETS":
			p.ensureNetlist(design)
			if err := p.parseNets(); err != nil {
				return nil, err
			}
		case "END":
			p.next() // DESIGN / section name
		default:
			return nil, fmt.Errorf("def: unexpected token %q", tok)
		}
	}
	return p.build()
}

func (p *defParser) ensureNetlist(design string) {
	if p.nl == nil {
		p.nl = netlist.New(design, p.lib)
	}
}

// parseUnits checks UNITS DISTANCE MICRONS against the library: rows and
// components are read in library DBU, so any other scale would misplace
// every cell.
func (p *defParser) parseUnits() error {
	if err := p.mustTok("DISTANCE"); err != nil {
		return err
	}
	if err := p.mustTok("MICRONS"); err != nil {
		return err
	}
	n, err := p.int64Tok()
	if err != nil {
		return err
	}
	if n != p.lib.DBUPerMicron {
		return fmt.Errorf("def: UNITS DISTANCE MICRONS %d, library has %d", n, p.lib.DBUPerMicron)
	}
	return p.mustTok(";")
}

func (p *defParser) parseRow() error {
	p.next() // row name
	p.next() // site name
	x, err := p.int64Tok()
	if err != nil {
		return err
	}
	y, err := p.int64Tok()
	if err != nil {
		return err
	}
	p.next() // orientation
	if tok := p.next(); tok != "DO" {
		return fmt.Errorf("def: ROW: expected DO, got %q", tok)
	}
	n, err := p.int64Tok()
	if err != nil {
		return err
	}
	if n <= 0 || n > maxDEFSites {
		return fmt.Errorf("def: ROW: %d sites out of range [1, %d]", n, maxDEFSites)
	}
	if len(p.rows) > 0 && int(n) != p.rowSites {
		return fmt.Errorf("def: ROW: %d sites, earlier rows have %d", n, p.rowSites)
	}
	p.skipTo(";")
	p.rows = append(p.rows, geom.Pt(x, y))
	p.rowSites = int(n)
	return nil
}

func (p *defParser) parsePins() error {
	p.skipTo(";")
	for {
		tok := p.next()
		if tok == "END" {
			p.next() // PINS
			return nil
		}
		if tok != "-" {
			return fmt.Errorf("def: PINS: expected '-', got %q", tok)
		}
		name := p.next()
		dir := netlist.In
		var placed bool
		var x, y int64
		for {
			t, err := p.entryTok("PINS")
			if err != nil {
				return err
			}
			if t == ";" {
				break
			}
			if t != "+" {
				continue
			}
			switch p.next() {
			case "NET":
				p.next()
			case "DIRECTION":
				if p.next() == "OUTPUT" {
					dir = netlist.Out
				}
			case "PLACED":
				pt, err := p.parenPoint()
				if err != nil {
					return err
				}
				x, y, placed = pt.X, pt.Y, true
				p.next() // orientation
			}
		}
		port, err := p.nl.AddPort(name, dir)
		if err != nil {
			return fmt.Errorf("def: %w", err)
		}
		net, err := p.nl.AddNet(name)
		if err != nil {
			return fmt.Errorf("def: %w", err)
		}
		if err := p.nl.ConnectPort(port, net); err != nil {
			return fmt.Errorf("def: %w", err)
		}
		if placed {
			p.portJobs = append(p.portJobs, portJob{name, x, y})
		}
	}
}

func (p *defParser) parseComponents() error {
	p.skipTo(";")
	for {
		tok := p.next()
		if tok == "END" {
			p.next() // COMPONENTS
			return nil
		}
		if tok != "-" {
			return fmt.Errorf("def: COMPONENTS: expected '-', got %q", tok)
		}
		name := p.next()
		master := p.next()
		if _, err := p.nl.AddInstance(name, master); err != nil {
			return fmt.Errorf("def: %w", err)
		}
		for {
			t, err := p.entryTok("COMPONENTS")
			if err != nil {
				return err
			}
			if t == ";" {
				break
			}
			if t != "+" {
				continue
			}
			switch p.next() {
			case "PLACED", "FIXED":
				fixed := p.toks[p.pos-1] == "FIXED"
				pt, err := p.parenPoint()
				if err != nil {
					return err
				}
				p.next() // orientation
				p.placeJobs = append(p.placeJobs, placeJob{name, pt.X, pt.Y, fixed})
			case "UNPLACED":
			}
		}
	}
}

func (p *defParser) parseNets() error {
	p.skipTo(";")
	for {
		tok := p.next()
		if tok == "END" {
			p.next() // NETS
			return nil
		}
		if tok != "-" {
			return fmt.Errorf("def: NETS: expected '-', got %q", tok)
		}
		name := p.next()
		net := p.nl.Net(name)
		if net == nil {
			var err error
			net, err = p.nl.AddNet(name)
			if err != nil {
				return fmt.Errorf("def: %w", err)
			}
		}
		for {
			t, err := p.entryTok("NETS")
			if err != nil {
				return err
			}
			if t == ";" {
				break
			}
			switch t {
			case "(":
				a := p.next()
				if a == "PIN" {
					p.next()       // port name (already connected via PINS)
					p.mustTok(")") //nolint:errcheck
					continue
				}
				pin := p.next()
				if err := p.mustTok(")"); err != nil {
					return err
				}
				in := p.nl.Instance(a)
				if in == nil {
					return fmt.Errorf("def: net %s references unknown component %q", name, a)
				}
				if err := p.nl.Connect(in, pin, net); err != nil {
					return fmt.Errorf("def: %w", err)
				}
			case "+":
				if p.next() == "USE" && p.next() == "CLOCK" {
					net.IsClock = true
				}
			}
		}
	}
}

func (p *defParser) build() (*Layout, error) {
	if p.nl == nil || len(p.rows) == 0 {
		return nil, fmt.Errorf("def: missing ROW or sections")
	}
	if len(p.rows) > maxDEFSites/p.rowSites {
		return nil, fmt.Errorf("def: core of %d rows × %d sites exceeds %d sites", len(p.rows), p.rowSites, maxDEFSites)
	}
	l, err := New(p.nl, len(p.rows), p.rowSites)
	if err != nil {
		return nil, err
	}
	l.Origin = p.rows[0]
	site := p.lib.Site
	// The layout is a uniform stack of rows: one x, y stepping by the
	// site height. Rows laid out any other way have no site grid to map
	// onto.
	for i, o := range p.rows[1:] {
		if prev := p.rows[i]; o.X != prev.X || o.Y-prev.Y != site.Height {
			return nil, fmt.Errorf("def: ROW %d at ( %d %d ) does not stack on row %d at ( %d %d ) by site height %d",
				i+1, o.X, o.Y, i, prev.X, prev.Y, site.Height)
		}
	}
	for _, j := range p.placeJobs {
		in := p.nl.Instance(j.inst)
		dx, dy := j.x-l.Origin.X, j.y-l.Origin.Y
		if dx < 0 || dy < 0 || dx%site.Width != 0 || dy%site.Height != 0 {
			return nil, fmt.Errorf("def: component %s at ( %d %d ) is off the site grid at ( %d %d )",
				j.inst, j.x, j.y, l.Origin.X, l.Origin.Y)
		}
		if err := l.Place(in, int(dy/site.Height), int(dx/site.Width)); err != nil {
			return nil, fmt.Errorf("def: %w", err)
		}
		in.Fixed = j.fixed
	}
	for _, j := range p.portJobs {
		l.PortPos[j.name] = geom.Pt(j.x, j.y)
	}
	return l, nil
}

func (p *defParser) parenPoint() (geom.Point, error) {
	if err := p.mustTok("("); err != nil {
		return geom.Point{}, err
	}
	x, err := p.int64Tok()
	if err != nil {
		return geom.Point{}, err
	}
	y, err := p.int64Tok()
	if err != nil {
		return geom.Point{}, err
	}
	if err := p.mustTok(")"); err != nil {
		return geom.Point{}, err
	}
	return geom.Pt(x, y), nil
}

func (p *defParser) next() string {
	if p.eof() {
		return ""
	}
	t := p.toks[p.pos]
	p.pos++
	return t
}

func (p *defParser) eof() bool { return p.pos >= len(p.toks) }

// entryTok returns the next token of a section entry; an entry cut off by
// the end of input is an error, not an endless scan for its ';'.
func (p *defParser) entryTok(section string) (string, error) {
	if p.eof() {
		return "", fmt.Errorf("def: %s: entry not terminated by ';'", section)
	}
	return p.next(), nil
}

func (p *defParser) skipTo(tok string) {
	for !p.eof() && p.next() != tok {
	}
}

func (p *defParser) mustTok(want string) error {
	if got := p.next(); got != want {
		return fmt.Errorf("def: expected %q, got %q", want, got)
	}
	return nil
}

func (p *defParser) int64Tok() (int64, error) {
	tok := p.next()
	v, err := strconv.ParseInt(tok, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("def: bad integer %q", tok)
	}
	return v, nil
}

// defTokens splits DEF text into tokens; parentheses and semicolons are
// their own tokens, '#' comments are skipped.
func defTokens(r io.Reader) []string {
	var toks []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.ReplaceAll(line, "(", " ( ")
		line = strings.ReplaceAll(line, ")", " ) ")
		line = strings.ReplaceAll(line, ";", " ; ")
		toks = append(toks, strings.Fields(line)...)
	}
	return toks
}
