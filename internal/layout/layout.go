// Package layout is the physical design database: a netlist bound to a core
// of placement rows and sites, with a site-level occupancy grid, port
// locations, placement blockages, and the active non-default routing rule.
//
// The occupancy grid is the single source of truth that both the anti-Trojan
// operators (Cell Shift walks empty-site runs) and the security metric
// (exploitable regions are connected components of empty sites) read, so the
// two can never disagree about what is free.
package layout

import (
	"fmt"
	"maps"

	"gdsiiguard/internal/geom"
	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/tech"
)

// Placement is the location of one instance: row index and starting site.
type Placement struct {
	Row, Site int
	Placed    bool
}

// Blockage is a partial placement blockage over a site-coordinate region
// [Row0,Row1) × [Site0,Site1) with an occupancy upper bound. The LDA
// operator uses blockages to steer local density.
type Blockage struct {
	Row0, Row1, Site0, Site1 int
	// MaxDensity is the allowed occupied fraction in the region, 0..1.
	MaxDensity float64
}

// SiteRun is a maximal run of contiguous free sites within one row.
type SiteRun struct {
	Row, Start, Len int
}

// Layout binds a netlist to a placed core.
type Layout struct {
	Netlist *netlist.Netlist
	// NumRows and SitesPerRow define the core: NumRows rows of
	// SitesPerRow sites each.
	NumRows, SitesPerRow int
	// Origin is the DBU location of row 0, site 0 (core lower-left).
	Origin geom.Point
	// PortPos locates each top-level port on the die boundary (DBU).
	PortPos map[string]geom.Point
	// Blockages are the active partial placement blockages.
	Blockages []Blockage
	// NDR is the non-default routing rule currently applied (the Routing
	// Width Scaling state); zero value means default widths.
	NDR tech.NDR

	placements []Placement // indexed by instance ID
	occ        []int32     // NumRows × SitesPerRow; 0 = free, else instID+1

	// Placement journal (see journal.go). Depth-counted so an evaluation-
	// scope journal can nest the operator's per-pass journaling.
	journal      []journalRec
	journalDepth int
	// journalWrites counts the records written since the outermost
	// BeginJournal, rolled-back ones included.
	journalWrites int
}

// New creates an empty layout of the given core size for the netlist.
func New(nl *netlist.Netlist, numRows, sitesPerRow int) (*Layout, error) {
	if numRows <= 0 || sitesPerRow <= 0 {
		return nil, fmt.Errorf("layout: non-positive core %dx%d", numRows, sitesPerRow)
	}
	l := &Layout{
		Netlist:     nl,
		NumRows:     numRows,
		SitesPerRow: sitesPerRow,
		PortPos:     make(map[string]geom.Point),
		NDR:         tech.DefaultNDR(nl.Lib.NumLayers()),
		placements:  make([]Placement, len(nl.Insts)),
		occ:         make([]int32, numRows*sitesPerRow),
	}
	return l, nil
}

// Lib returns the technology library.
func (l *Layout) Lib() *tech.Library { return l.Netlist.Lib }

// TotalSites returns the number of placement sites in the core.
func (l *Layout) TotalSites() int { return l.NumRows * l.SitesPerRow }

// CoreRect returns the core bounding box in DBU.
func (l *Layout) CoreRect() geom.Rect {
	w := int64(l.SitesPerRow) * l.Lib().Site.Width
	h := int64(l.NumRows) * l.Lib().Site.Height
	return geom.Rect{Lo: l.Origin, Hi: l.Origin.Add(geom.Pt(w, h))}
}

// grow extends the placement slice when instances were added to the netlist
// after layout creation (fill-based defenses do this).
func (l *Layout) grow() {
	for len(l.placements) < len(l.Netlist.Insts) {
		l.placements = append(l.placements, Placement{})
	}
}

// PlacementOf returns the placement of an instance.
func (l *Layout) PlacementOf(in *netlist.Instance) Placement {
	l.grow()
	return l.placements[in.ID]
}

// At returns the instance occupying (row, site), or nil if free.
func (l *Layout) At(row, site int) *netlist.Instance {
	if row < 0 || row >= l.NumRows || site < 0 || site >= l.SitesPerRow {
		return nil
	}
	id := l.occ[row*l.SitesPerRow+site]
	if id == 0 {
		return nil
	}
	return l.Netlist.Insts[id-1]
}

// Free reports whether (row, site) is inside the core and unoccupied.
func (l *Layout) Free(row, site int) bool {
	if row < 0 || row >= l.NumRows || site < 0 || site >= l.SitesPerRow {
		return false
	}
	return l.occ[row*l.SitesPerRow+site] == 0
}

// CanPlace reports whether the instance fits at (row, site) without
// overlapping other cells or leaving the core.
func (l *Layout) CanPlace(in *netlist.Instance, row, site int) bool {
	w := in.Master.WidthSites
	if row < 0 || row >= l.NumRows || site < 0 || site+w > l.SitesPerRow {
		return false
	}
	base := row * l.SitesPerRow
	for s := site; s < site+w; s++ {
		if occ := l.occ[base+s]; occ != 0 && occ != int32(in.ID+1) {
			return false
		}
	}
	return true
}

// Place puts the instance at (row, site), un-placing it first if needed.
func (l *Layout) Place(in *netlist.Instance, row, site int) error {
	l.grow()
	if !l.canPlaceIgnoringSelf(in, row, site) {
		return fmt.Errorf("layout: cannot place %s (%d sites) at row %d site %d",
			in.Name, in.Master.WidthSites, row, site)
	}
	old := l.placements[in.ID]
	np := Placement{Row: row, Site: site, Placed: true}
	l.record(in, old, np)
	if old.Placed {
		l.clearSites(in, old)
	}
	l.fillSites(in, np)
	l.placements[in.ID] = np
	return nil
}

func (l *Layout) canPlaceIgnoringSelf(in *netlist.Instance, row, site int) bool {
	w := in.Master.WidthSites
	if row < 0 || row >= l.NumRows || site < 0 || site+w > l.SitesPerRow {
		return false
	}
	base := row * l.SitesPerRow
	self := int32(in.ID + 1)
	for s := site; s < site+w; s++ {
		if occ := l.occ[base+s]; occ != 0 && occ != self {
			return false
		}
	}
	return true
}

// Unplace removes the instance from the grid (no-op if unplaced).
func (l *Layout) Unplace(in *netlist.Instance) {
	l.grow()
	p := l.placements[in.ID]
	if !p.Placed {
		return
	}
	l.record(in, p, Placement{})
	l.clearSites(in, p)
	l.placements[in.ID] = Placement{}
}

// ShiftLeft moves the instance one site left within its row. It fails if the
// cell is unplaced, fixed, at the row edge, or blocked by a neighbor.
func (l *Layout) ShiftLeft(in *netlist.Instance) error {
	p := l.PlacementOf(in)
	if !p.Placed {
		return fmt.Errorf("layout: %s is not placed", in.Name)
	}
	if in.Fixed {
		return fmt.Errorf("layout: %s is fixed", in.Name)
	}
	if p.Site == 0 || !l.Free(p.Row, p.Site-1) {
		return fmt.Errorf("layout: %s cannot shift left", in.Name)
	}
	return l.Place(in, p.Row, p.Site-1)
}

// ShiftRight moves the instance one site right within its row.
func (l *Layout) ShiftRight(in *netlist.Instance) error {
	p := l.PlacementOf(in)
	if !p.Placed {
		return fmt.Errorf("layout: %s is not placed", in.Name)
	}
	if in.Fixed {
		return fmt.Errorf("layout: %s is fixed", in.Name)
	}
	end := p.Site + in.Master.WidthSites
	if end >= l.SitesPerRow || !l.Free(p.Row, end) {
		return fmt.Errorf("layout: %s cannot shift right", in.Name)
	}
	return l.Place(in, p.Row, p.Site+1)
}

// FreeRuns returns the maximal runs of free sites in the given row, in
// left-to-right order.
func (l *Layout) FreeRuns(row int) []SiteRun {
	return l.AppendFreeRuns(row, nil)
}

// AppendFreeRuns appends the maximal runs of free sites in the given row to
// buf (left-to-right order) and returns the extended slice. Passing a
// reused buffer makes the scan allocation-free — the ECO operators call
// this once per row per pass.
func (l *Layout) AppendFreeRuns(row int, buf []SiteRun) []SiteRun {
	base := row * l.SitesPerRow
	start := -1
	for s := 0; s < l.SitesPerRow; s++ {
		if l.occ[base+s] == 0 {
			if start < 0 {
				start = s
			}
		} else if start >= 0 {
			buf = append(buf, SiteRun{Row: row, Start: start, Len: s - start})
			start = -1
		}
	}
	if start >= 0 {
		buf = append(buf, SiteRun{Row: row, Start: start, Len: l.SitesPerRow - start})
	}
	return buf
}

// RowCells returns the instances in a row in left-to-right order.
func (l *Layout) RowCells(row int) []*netlist.Instance {
	return l.AppendRowCells(row, nil)
}

// AppendRowCells appends the row's instances (left-to-right) to buf and
// returns the extended slice; a reused buffer makes the scan
// allocation-free, like AppendFreeRuns.
func (l *Layout) AppendRowCells(row int, buf []*netlist.Instance) []*netlist.Instance {
	base := row * l.SitesPerRow
	var prev int32
	for s := 0; s < l.SitesPerRow; s++ {
		id := l.occ[base+s]
		if id != 0 && id != prev {
			buf = append(buf, l.Netlist.Insts[id-1])
		}
		prev = id
	}
	return buf
}

// FreeSites returns the total number of unoccupied sites in the core.
func (l *Layout) FreeSites() int {
	n := 0
	for _, v := range l.occ {
		if v == 0 {
			n++
		}
	}
	return n
}

// Utilization returns the occupied fraction of the core.
func (l *Layout) Utilization() float64 {
	return 1 - float64(l.FreeSites())/float64(l.TotalSites())
}

// RegionDensity returns the occupied fraction of the site-coordinate region
// [row0,row1) × [site0,site1), clipped to the core.
func (l *Layout) RegionDensity(row0, row1, site0, site1 int) float64 {
	row0, row1 = clamp(row0, 0, l.NumRows), clamp(row1, 0, l.NumRows)
	site0, site1 = clamp(site0, 0, l.SitesPerRow), clamp(site1, 0, l.SitesPerRow)
	total, used := 0, 0
	for r := row0; r < row1; r++ {
		base := r * l.SitesPerRow
		for s := site0; s < site1; s++ {
			total++
			if l.occ[base+s] != 0 {
				used++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(used) / float64(total)
}

// SiteDBU returns the DBU coordinates of the lower-left corner of
// (row, site).
func (l *Layout) SiteDBU(row, site int) geom.Point {
	return geom.Pt(
		l.Origin.X+int64(site)*l.Lib().Site.Width,
		l.Origin.Y+int64(row)*l.Lib().Site.Height,
	)
}

// CellRect returns the DBU bounding box of a placed instance
// (zero Rect when unplaced).
func (l *Layout) CellRect(in *netlist.Instance) geom.Rect {
	p := l.PlacementOf(in)
	if !p.Placed {
		return geom.Rect{}
	}
	lo := l.SiteDBU(p.Row, p.Site)
	return geom.Rect{
		Lo: lo,
		Hi: lo.Add(geom.Pt(int64(in.Master.WidthSites)*l.Lib().Site.Width, l.Lib().Site.Height)),
	}
}

// InstCenter returns the DBU center of a placed instance.
func (l *Layout) InstCenter(in *netlist.Instance) geom.Point {
	return l.CellRect(in).Center()
}

// TermPos returns the DBU position of a net terminal: the owning cell's
// center for instance pins, the port location for ports. ok is false when
// the terminal's instance is unplaced or the port has no location.
func (l *Layout) TermPos(t netlist.Terminal) (geom.Point, bool) {
	if t.IsPort() {
		p, ok := l.PortPos[t.Port.Name]
		return p, ok
	}
	if !l.PlacementOf(t.Inst).Placed {
		return geom.Point{}, false
	}
	return l.InstCenter(t.Inst), true
}

// NetTermPoints returns the DBU positions of all located terminals of a net.
func (l *Layout) NetTermPoints(n *netlist.Net) []geom.Point {
	return l.AppendNetTermPoints(make([]geom.Point, 0, n.NumTerms()), n)
}

// AppendNetTermPoints appends the DBU positions of the net's located
// terminals (driver first, then sinks in order) to dst and returns the
// extended slice, so a caller walking many nets can reuse one buffer.
func (l *Layout) AppendNetTermPoints(dst []geom.Point, n *netlist.Net) []geom.Point {
	if n.HasDriver() {
		if p, ok := l.TermPos(n.Driver); ok {
			dst = append(dst, p)
		}
	}
	for _, s := range n.Sinks {
		if p, ok := l.TermPos(s); ok {
			dst = append(dst, p)
		}
	}
	return dst
}

// NetHPWL returns the half-perimeter wirelength of a net in DBU.
func (l *Layout) NetHPWL(n *netlist.Net) int64 {
	return geom.HPWL(l.NetTermPoints(n))
}

// TotalHPWL returns the sum of HPWL over all signal nets in DBU.
func (l *Layout) TotalHPWL() int64 {
	var total int64
	for _, n := range l.Netlist.Nets {
		total += l.NetHPWL(n)
	}
	return total
}

// SpreadPorts assigns every port a location evenly spaced along the die
// boundary, deterministic in port order.
func (l *Layout) SpreadPorts() {
	core := l.CoreRect()
	n := len(l.Netlist.Ports)
	if n == 0 {
		return
	}
	perim := 2 * (core.W() + core.H())
	for i, p := range l.Netlist.Ports {
		d := perim * int64(i) / int64(n)
		var pt geom.Point
		switch {
		case d < core.W():
			pt = geom.Pt(core.Lo.X+d, core.Lo.Y)
		case d < core.W()+core.H():
			pt = geom.Pt(core.Hi.X, core.Lo.Y+(d-core.W()))
		case d < 2*core.W()+core.H():
			pt = geom.Pt(core.Hi.X-(d-core.W()-core.H()), core.Hi.Y)
		default:
			pt = geom.Pt(core.Lo.X, core.Hi.Y-(d-2*core.W()-core.H()))
		}
		l.PortPos[p.Name] = pt
	}
}

// ClearBlockages removes all placement blockages (LDA does this each
// iteration).
func (l *Layout) ClearBlockages() { l.Blockages = l.Blockages[:0] }

// AddBlockage registers a partial placement blockage; coordinates are
// clipped to the core.
func (l *Layout) AddBlockage(b Blockage) {
	b.Row0, b.Row1 = clamp(b.Row0, 0, l.NumRows), clamp(b.Row1, 0, l.NumRows)
	b.Site0, b.Site1 = clamp(b.Site0, 0, l.SitesPerRow), clamp(b.Site1, 0, l.SitesPerRow)
	l.Blockages = append(l.Blockages, b)
}

// BlockageAt returns the lowest MaxDensity of any blockage covering
// (row, site), or 1.0 if uncovered.
func (l *Layout) BlockageAt(row, site int) float64 {
	d := 1.0
	for _, b := range l.Blockages {
		if row >= b.Row0 && row < b.Row1 && site >= b.Site0 && site < b.Site1 {
			if b.MaxDensity < d {
				d = b.MaxDensity
			}
		}
	}
	return d
}

// Clone deep-copies the layout together with its netlist, for isolated
// evaluation of one flow parameter configuration.
func (l *Layout) Clone() *Layout {
	nl := l.Netlist.Clone()
	out := &Layout{
		Netlist:     nl,
		NumRows:     l.NumRows,
		SitesPerRow: l.SitesPerRow,
		Origin:      l.Origin,
		PortPos:     maps.Clone(l.PortPos),
		Blockages:   append([]Blockage(nil), l.Blockages...),
		NDR:         l.NDR.Clone(),
		placements:  append([]Placement(nil), l.placements...),
		occ:         append([]int32(nil), l.occ...),
	}
	return out
}

// Validate checks grid/placement consistency: every placed instance's sites
// are owned by it, every occupied site belongs to a placed instance, and
// every functional instance is placed.
//
// It allocates nothing on a consistent layout. Once every placed instance
// is known to own its WidthSites sites, the occupied sites number at least
// the sum of the placed widths, and exactly that sum only if no site
// belongs to an unplaced instance or to a placed one beyond its width. So
// the two remaining checks are one count, and only a layout failing it
// pays for the per-owner tally that names the culprit.
func (l *Layout) Validate() error {
	l.grow()
	placedSites := 0
	for _, in := range l.Netlist.Insts {
		p := l.placements[in.ID]
		if !p.Placed {
			if in.Master.IsFunctional() {
				return fmt.Errorf("layout: functional instance %s unplaced", in.Name)
			}
			continue
		}
		if p.Row < 0 || p.Row >= l.NumRows || p.Site < 0 ||
			p.Site+in.Master.WidthSites > l.SitesPerRow {
			return fmt.Errorf("layout: %s out of core at (%d,%d)", in.Name, p.Row, p.Site)
		}
		base := p.Row * l.SitesPerRow
		for s := p.Site; s < p.Site+in.Master.WidthSites; s++ {
			if l.occ[base+s] != int32(in.ID+1) {
				return fmt.Errorf("layout: site (%d,%d) not owned by %s", p.Row, s, in.Name)
			}
		}
		placedSites += in.Master.WidthSites
	}
	occupied := 0
	for _, v := range l.occ {
		if v != 0 {
			occupied++
		}
	}
	if occupied != placedSites {
		return l.ownershipError()
	}
	return nil
}

// ownershipError names the instance whose site count is wrong: an unplaced
// instance owning sites, or a placed one owning more than its width.
func (l *Layout) ownershipError() error {
	counts := make(map[int32]int)
	for _, v := range l.occ {
		if v != 0 {
			counts[v]++
		}
	}
	for id, n := range counts {
		in := l.Netlist.Insts[id-1]
		if !l.placements[in.ID].Placed {
			return fmt.Errorf("layout: unplaced instance %s owns %d sites", in.Name, n)
		}
		if n != in.Master.WidthSites {
			return fmt.Errorf("layout: %s owns %d sites, master is %d wide", in.Name, n, in.Master.WidthSites)
		}
	}
	// Unreachable: Validate calls this only when the counts disagree.
	return fmt.Errorf("layout: occupancy grid disagrees with the placements")
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// AdoptPlacements copies the placement state (occupancy grid, placement
// table, blockages and NDR are left untouched) from a snapshot layout with
// an identically-shaped core and an identically-ordered netlist — typically
// one produced by Clone of this layout. Instance identity is matched by ID.
// A wholesale copy cannot be expressed as journal records, so any open
// journal has its stream cleared: outstanding marks become invalid.
func (l *Layout) AdoptPlacements(src *Layout) error {
	if l.NumRows != src.NumRows || l.SitesPerRow != src.SitesPerRow {
		return fmt.Errorf("layout: core shape mismatch %dx%d vs %dx%d",
			l.NumRows, l.SitesPerRow, src.NumRows, src.SitesPerRow)
	}
	if len(l.Netlist.Insts) != len(src.Netlist.Insts) {
		return fmt.Errorf("layout: instance count mismatch %d vs %d",
			len(l.Netlist.Insts), len(src.Netlist.Insts))
	}
	l.grow()
	src.grow()
	copy(l.occ, src.occ)
	copy(l.placements, src.placements)
	l.journal = l.journal[:0]
	return nil
}
