package place

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/opencell45"
	"gdsiiguard/internal/tech"
)

// chainNetlist builds a design of nStages inverter chains, each capped with
// a DFF, plus a clock port — enough structure to exercise placement.
func chainNetlist(t testing.TB, chains, stages int) *netlist.Netlist {
	t.Helper()
	lib := opencell45.MustLoad()
	nl := netlist.New(fmt.Sprintf("chain_%dx%d", chains, stages), lib)
	clkPort, _ := nl.AddPort("clk", netlist.In)
	clkNet, _ := nl.AddNet("clk")
	clkNet.IsClock = true
	if err := nl.ConnectPort(clkPort, clkNet); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < chains; c++ {
		inPort, _ := nl.AddPort(fmt.Sprintf("in%d", c), netlist.In)
		outPort, _ := nl.AddPort(fmt.Sprintf("out%d", c), netlist.Out)
		prev, _ := nl.AddNet(fmt.Sprintf("c%d_in", c))
		if err := nl.ConnectPort(inPort, prev); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < stages; s++ {
			inv, err := nl.AddInstance(fmt.Sprintf("c%d_inv%d", c, s), "INV_X1")
			if err != nil {
				t.Fatal(err)
			}
			next, _ := nl.AddNet(fmt.Sprintf("c%d_n%d", c, s))
			if err := nl.Connect(inv, "A", prev); err != nil {
				t.Fatal(err)
			}
			if err := nl.Connect(inv, "ZN", next); err != nil {
				t.Fatal(err)
			}
			prev = next
		}
		dff, err := nl.AddInstance(fmt.Sprintf("c%d_dff", c), "DFF_X1")
		if err != nil {
			t.Fatal(err)
		}
		q, _ := nl.AddNet(fmt.Sprintf("c%d_q", c))
		if err := nl.Connect(dff, "D", prev); err != nil {
			t.Fatal(err)
		}
		if err := nl.Connect(dff, "CK", clkNet); err != nil {
			t.Fatal(err)
		}
		if err := nl.Connect(dff, "Q", q); err != nil {
			t.Fatal(err)
		}
		if err := nl.ConnectPort(outPort, q); err != nil {
			t.Fatal(err)
		}
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestGlobalPlacesEverything(t *testing.T) {
	nl := chainNetlist(t, 8, 20)
	l, err := Global(nl, GlobalOptions{TargetUtil: 0.6, RefinePasses: 2, Seed: 1})
	if err != nil {
		t.Fatalf("Global: %v", err)
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("layout invalid: %v", err)
	}
	got := l.Utilization()
	if math.Abs(got-0.6) > 0.15 {
		t.Errorf("utilization = %g, want ≈0.6", got)
	}
	if len(l.PortPos) != len(nl.Ports) {
		t.Error("ports not spread")
	}
}

func TestGlobalUtilizationSweep(t *testing.T) {
	for _, util := range []float64{0.4, 0.55, 0.7, 0.85} {
		nl := chainNetlist(t, 4, 15)
		l, err := Global(nl, GlobalOptions{TargetUtil: util, Seed: 7})
		if err != nil {
			t.Fatalf("util %g: %v", util, err)
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("util %g: %v", util, err)
		}
		if math.Abs(l.Utilization()-util) > 0.2 {
			t.Errorf("util %g: got %g", util, l.Utilization())
		}
	}
}

func TestGlobalRejectsBadOptions(t *testing.T) {
	nl := chainNetlist(t, 1, 2)
	if _, err := Global(nl, GlobalOptions{TargetUtil: 0}); err == nil {
		t.Error("zero utilization accepted")
	}
	if _, err := Global(nl, GlobalOptions{TargetUtil: 1.5}); err == nil {
		t.Error("utilization > 1 accepted")
	}
	lib := opencell45.MustLoad()
	empty := netlist.New("empty", lib)
	if _, err := Global(empty, GlobalOptions{TargetUtil: 0.5}); err == nil {
		t.Error("empty netlist accepted")
	}
}

func TestGlobalDeterministic(t *testing.T) {
	nl1 := chainNetlist(t, 4, 10)
	nl2 := chainNetlist(t, 4, 10)
	l1, err := Global(nl1, GlobalOptions{TargetUtil: 0.6, RefinePasses: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := Global(nl2, GlobalOptions{TargetUtil: 0.6, RefinePasses: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range nl1.Insts {
		p1 := l1.PlacementOf(in)
		p2 := l2.PlacementOf(nl2.Instance(in.Name))
		if p1 != p2 {
			t.Fatalf("placement of %s differs: %+v vs %+v", in.Name, p1, p2)
		}
	}
}

func TestRefineImprovesWirelength(t *testing.T) {
	nl := chainNetlist(t, 6, 25)
	l, err := Global(nl, GlobalOptions{TargetUtil: 0.5, RefinePasses: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	before := l.TotalHPWL()
	moved := Refine(l, 11)
	after := l.TotalHPWL()
	if after > before {
		t.Errorf("HPWL worsened: %d -> %d", before, after)
	}
	if moved > 0 && after == before {
		t.Error("cells moved but HPWL unchanged")
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("layout invalid after refine: %v", err)
	}
}

func TestRefineRespectsFixedCells(t *testing.T) {
	nl := chainNetlist(t, 4, 10)
	l, err := Global(nl, GlobalOptions{TargetUtil: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	fixedPos := map[string]layout.Placement{}
	for _, in := range nl.Insts {
		if in.Master.Class.String() == "seq" {
			in.Fixed = true
			fixedPos[in.Name] = l.PlacementOf(in)
		}
	}
	Refine(l, 1)
	for name, want := range fixedPos {
		if got := l.PlacementOf(nl.Instance(name)); got != want {
			t.Errorf("fixed cell %s moved: %+v -> %+v", name, want, got)
		}
	}
}

func TestECOEvacuatesBlockage(t *testing.T) {
	nl := chainNetlist(t, 6, 20)
	l, err := Global(nl, GlobalOptions{TargetUtil: 0.4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Cap density at 25% over the left half of the core (feasible: the
	// right half ends at ~55%).
	cap := 0.25
	b := layout.Blockage{Row0: 0, Row1: l.NumRows, Site0: 0, Site1: l.SitesPerRow / 2, MaxDensity: cap}
	l.AddBlockage(b)
	before := l.RegionDensity(b.Row0, b.Row1, b.Site0, b.Site1)
	if before <= cap {
		t.Skip("region not overfull; test needs denser start")
	}
	res := ECO(l, 17)
	after := l.RegionDensity(b.Row0, b.Row1, b.Site0, b.Site1)
	if !res.Satisfied {
		t.Errorf("blockage not satisfied: density %g -> %g (moved %d)", before, after, res.Moved)
	}
	if after > cap+1e-9 {
		t.Errorf("density still %g > %g", after, cap)
	}
	if res.Moved == 0 {
		t.Error("no cells moved")
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("layout invalid after ECO: %v", err)
	}
}

func TestECOKeepsFixedCellsInPlace(t *testing.T) {
	nl := chainNetlist(t, 4, 12)
	l, err := Global(nl, GlobalOptions{TargetUtil: 0.6, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	var fixed *netlist.Instance
	for _, in := range nl.Insts {
		p := l.PlacementOf(in)
		if p.Placed && p.Site < l.SitesPerRow/2 {
			in.Fixed = true
			fixed = in
			break
		}
	}
	if fixed == nil {
		t.Skip("no cell in left half")
	}
	want := l.PlacementOf(fixed)
	l.AddBlockage(layout.Blockage{Row0: 0, Row1: l.NumRows, Site0: 0, Site1: l.SitesPerRow / 2, MaxDensity: 0.0})
	ECO(l, 3)
	if got := l.PlacementOf(fixed); got != want {
		t.Errorf("fixed cell moved: %+v -> %+v", want, got)
	}
}

func TestECONoBlockagesIsNoop(t *testing.T) {
	nl := chainNetlist(t, 2, 5)
	l, err := Global(nl, GlobalOptions{TargetUtil: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res := ECO(l, 1)
	if res.Moved != 0 || !res.Satisfied {
		t.Errorf("no-op ECO = %+v", res)
	}
}

func TestECOImpossibleCapReportsUnsatisfied(t *testing.T) {
	nl := chainNetlist(t, 6, 20)
	l, err := Global(nl, GlobalOptions{TargetUtil: 0.9, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Zero density over the whole core: impossible.
	l.AddBlockage(layout.Blockage{Row0: 0, Row1: l.NumRows, Site0: 0, Site1: l.SitesPerRow, MaxDensity: 0})
	res := ECO(l, 5)
	if res.Satisfied {
		t.Error("impossible cap reported satisfied")
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("layout invalid: %v", err)
	}
}

func BenchmarkGlobalPlacement(b *testing.B) {
	nl := chainNetlist(b, 16, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl := nl.Clone()
		if _, err := Global(cl, GlobalOptions{TargetUtil: 0.6, RefinePasses: 1, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// nearestFitDoubleProbe is nearestFit as it was when the span-0 site was
// probed twice (ts-0 and ts+0): the reference the single probe must match.
func nearestFitDoubleProbe(l *layout.Layout, dens *densityTracker, in *netlist.Instance, tr, ts, maxRadius int) (int, int, bool) {
	rowWeight := int(l.Lib().Site.Height / l.Lib().Site.Width)
	if rowWeight < 1 {
		rowWeight = 1
	}
	limit := l.SitesPerRow + l.NumRows*rowWeight
	if maxRadius > 0 && maxRadius < limit {
		limit = maxRadius
	}
	for radius := 0; radius <= limit; radius += rowWeight {
		for dr := -radius / rowWeight; dr <= radius/rowWeight; dr++ {
			r := tr + dr
			if r < 0 || r >= l.NumRows {
				continue
			}
			span := radius - abs(dr)*rowWeight
			for _, s := range []int{ts - span, ts + span} {
				if s < 0 || s+in.Master.WidthSites > l.SitesPerRow {
					continue
				}
				if l.CanPlace(in, r, s) && dens.fits(in, l.PlacementOf(in), r, s) {
					return r, s, true
				}
			}
		}
	}
	return 0, 0, false
}

// TestNearestFitMatchesDoubleProbe searches from every row and site, for
// cells of several widths, on a 60 %-utilized layout with a capped
// blockage over its left half, and requires nearestFit to find exactly the
// position (or failure) the double-probe search finds.
func TestNearestFitMatchesDoubleProbe(t *testing.T) {
	nl := chainNetlist(t, 6, 20)
	l, err := Global(nl, GlobalOptions{TargetUtil: 0.6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	l.AddBlockage(layout.Blockage{Row0: 0, Row1: l.NumRows, Site0: 0, Site1: l.SitesPerRow / 2, MaxDensity: 0.5})
	dens := newDensityTracker(l)
	widths := map[int]*netlist.Instance{}
	for _, in := range movableCells(l) {
		if widths[in.Master.WidthSites] == nil {
			widths[in.Master.WidthSites] = in
		}
	}
	found, missed := 0, 0
	for _, in := range widths {
		for tr := 0; tr < l.NumRows; tr++ {
			for ts := 0; ts < l.SitesPerRow; ts++ {
				for _, radius := range []int{0, 3, 40} {
					r, s, ok := nearestFit(l, dens, in, tr, ts, radius)
					wr, ws, wok := nearestFitDoubleProbe(l, dens, in, tr, ts, radius)
					if r != wr || s != ws || ok != wok {
						t.Fatalf("%s from (%d, %d) radius %d: (%d, %d, %v), want (%d, %d, %v)",
							in.Name, tr, ts, radius, r, s, ok, wr, ws, wok)
					}
					if ok {
						found++
					} else {
						missed++
					}
				}
			}
		}
	}
	t.Logf("%d widths: %d searches found a position, %d found none", len(widths), found, missed)
	if found == 0 || missed == 0 {
		t.Fatalf("fixture must both find and miss positions: found %d, missed %d", found, missed)
	}
}

// nearestFitProbe is nearestFit as it was before the bitset search, kept
// verbatim: a ring probe of every lattice position, CanPlace then fits on
// each. It is the reference the word-parallel search must match.
func nearestFitProbe(l *layout.Layout, dens *densityTracker, in *netlist.Instance, tr, ts, maxRadius int) (int, int, bool) {
	rowWeight := int(l.Lib().Site.Height / l.Lib().Site.Width)
	if rowWeight < 1 {
		rowWeight = 1
	}
	limit := l.SitesPerRow + l.NumRows*rowWeight
	if maxRadius > 0 && maxRadius < limit {
		limit = maxRadius
	}
	from := l.PlacementOf(in)
	w := in.Master.WidthSites
	for radius := 0; radius <= limit; radius += rowWeight {
		k := radius / rowWeight
		for dr := max(-k, -tr); dr <= min(k, l.NumRows-1-tr); dr++ {
			r := tr + dr
			span := radius - abs(dr)*rowWeight
			sites := [2]int{ts - span, ts + span}
			n := 2
			if span == 0 {
				n = 1 // ts-0 and ts+0 are the same site
			}
			for _, s := range sites[:n] {
				if s < 0 || s+w > l.SitesPerRow {
					continue
				}
				if l.CanPlace(in, r, s) && dens.fits(in, from, r, s) {
					return r, s, true
				}
			}
		}
	}
	return 0, 0, false
}

// testLibrary is a library of single-input buffers W<n>, n sites wide for
// each n in widths, on a site whose height is rowWeight site widths. It
// reaches what opencell45 does not: cells of 64 sites and more, and other
// row weights.
func testLibrary(rowWeight int, widths []int) *tech.Library {
	lib := tech.NewLibrary(fmt.Sprintf("rw%d", rowWeight))
	lib.DBUPerMicron = 1000
	lib.Site = tech.Site{Name: "s", Width: 100, Height: int64(100 * rowWeight)}
	for _, w := range widths {
		lib.AddCell(&tech.Cell{
			Name: fmt.Sprintf("W%d", w), Class: tech.Comb, WidthSites: w,
			Pins: []tech.Pin{{Name: "A", Dir: tech.Input}, {Name: "Z", Dir: tech.Output}},
		})
	}
	return lib
}

// mixedNetlist builds a chain of n cells whose masters cycle through the
// given names, driven from a port and observed by one.
func mixedNetlist(t testing.TB, lib *tech.Library, masters []string, n int) *netlist.Netlist {
	t.Helper()
	nl := netlist.New("mixed", lib)
	inPort, _ := nl.AddPort("in", netlist.In)
	outPort, _ := nl.AddPort("out", netlist.Out)
	prev, _ := nl.AddNet("n_in")
	if err := nl.ConnectPort(inPort, prev); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		m := lib.Cell(masters[i%len(masters)])
		in, err := nl.AddInstance(fmt.Sprintf("g%d", i), m.Name)
		if err != nil {
			t.Fatal(err)
		}
		next, _ := nl.AddNet(fmt.Sprintf("n%d", i))
		var inPin, outPin string
		for _, p := range m.Pins {
			switch {
			case p.Dir == tech.Input && !p.IsClock && inPin == "":
				inPin = p.Name
			case p.Dir == tech.Output && outPin == "":
				outPin = p.Name
			}
		}
		if err := nl.Connect(in, inPin, prev); err != nil {
			t.Fatal(err)
		}
		if err := nl.Connect(in, outPin, next); err != nil {
			t.Fatal(err)
		}
		prev = next
	}
	if err := nl.ConnectPort(outPort, prev); err != nil {
		t.Fatal(err)
	}
	return nl
}

// oneCellPerWidth returns one movable cell of each width the layout holds.
func oneCellPerWidth(l *layout.Layout) []*netlist.Instance {
	seen := map[int]bool{}
	var out []*netlist.Instance
	for _, in := range movableCells(l) {
		if w := in.Master.WidthSites; !seen[w] {
			seen[w] = true
			out = append(out, in)
		}
	}
	return out
}

// compareNearestFit runs the probe reference for cell in from (tr, ts) at
// every radius, and the bitset search with 0, 1 and nearRings rings probed
// before it goes word-parallel, and fails on the first difference.
func compareNearestFit(t testing.TB, l *layout.Layout, d *densityTracker, in *netlist.Instance, tr, ts int, radii []int) (found, missed int) {
	t.Helper()
	for _, radius := range radii {
		wr, ws, wok := nearestFitProbe(l, d, in, tr, ts, radius)
		for _, near := range []int{0, 1, nearRings} {
			r, s, ok := nearestFitProbing(l, d, in, tr, ts, radius, near)
			if r != wr || s != ws || ok != wok {
				t.Fatalf("%s (%d sites at %+v) from (%d, %d) radius %d, %d rings probed: (%d, %d, %v), probe (%d, %d, %v)",
					in.Name, in.Master.WidthSites, l.PlacementOf(in), tr, ts, radius, near, r, s, ok, wr, ws, wok)
			}
		}
		if wok {
			found++
		} else {
			missed++
		}
	}
	return found, missed
}

// TestNearestFitMatchesProbe compares the bitset search with the ring
// probe on random layouts (utilization 0.5–0.9) under LDA tilings of
// N = 2, 8 and 32 and under random overlapping blockages, for every cell
// width and radii 0 (unbounded), 3, 40 and 120. Targets cover the cell's
// own sites, the die edges and corners and random sites, and the
// comparison repeats after random moves. Besides opencell45 designs it
// runs a library with cells 64 sites wide and more and row weights 1, 3
// and 70.
func TestNearestFitMatchesProbe(t *testing.T) {
	radii := []int{0, 3, 40, 120}
	oc := opencell45.MustLoad()
	ocMasters := []string{"INV_X1", "INV_X2", "INV_X4", "BUF_X4", "INV_X8", "HA_X1", "FA_X1", "DFF_X2", "DFFR_X1", "SDFF_X1"}
	type fixture struct {
		name    string
		lib     *tech.Library
		masters []string
		cells   int
		scatter bool // place at random instead of with Global
	}
	fixtures := []fixture{
		{"opencell45", oc, ocMasters, 160, false},
		{"opencell45-large", oc, ocMasters, 700, false},
		{"rw1", testLibrary(1, []int{1, 2, 5, 13}), []string{"W1", "W2", "W5", "W13"}, 200, false},
		{"rw3-wide", testLibrary(3, []int{1, 4, 63, 64, 65, 90}), []string{"W1", "W4", "W4", "W63", "W4", "W64", "W1", "W65", "W4", "W90"}, 120, true},
		{"rw70", testLibrary(70, []int{1, 3, 6}), []string{"W1", "W3", "W6"}, 150, false},
	}
	blockages := []struct {
		name string
		add  func(*layout.Layout, *rand.Rand)
	}{
		{"none", func(*layout.Layout, *rand.Rand) {}},
		{"lda2", func(l *layout.Layout, rng *rand.Rand) { addTiling(l, 2, randomCap(rng)) }},
		{"lda8", func(l *layout.Layout, rng *rand.Rand) { addTiling(l, 8, randomCap(rng)) }},
		{"lda32", func(l *layout.Layout, rng *rand.Rand) { addTiling(l, 32, randomCap(rng)) }},
		{"random", randomBlockages},
	}
	steps, randomTargets := 4, 40
	if testing.Short() {
		steps, randomTargets = 2, 15
	}
	seed := int64(0)
	for _, fx := range fixtures {
		for _, bk := range blockages {
			found, missed := 0, 0
			for rep := 0; rep < 2; rep++ {
				seed++
				rng := rand.New(rand.NewSource(seed))
				nl := mixedNetlist(t, fx.lib, fx.masters, fx.cells)
				util := 0.5 + 0.4*rng.Float64()
				var l *layout.Layout
				if fx.scatter {
					l = scatterLayout(t, nl, util, rng)
				} else {
					var err error
					if l, err = Global(nl, GlobalOptions{TargetUtil: util, Seed: seed}); err != nil {
						t.Fatal(err)
					}
				}
				bk.add(l, rng)
				d := newDensityTracker(l)
				cells := movableCells(l)
				for step := 0; step <= steps; step++ {
					for _, in := range oneCellPerWidth(l) {
						p := l.PlacementOf(in)
						var targets [][2]int
						for s := p.Site - 1; s <= p.Site+in.Master.WidthSites; s++ {
							targets = append(targets, [2]int{p.Row, s})
						}
						last, end := l.NumRows-1, l.SitesPerRow-1
						targets = append(targets, [2]int{0, 0}, [2]int{0, end}, [2]int{last, 0}, [2]int{last, end},
							[2]int{p.Row, 0}, [2]int{p.Row, end}, [2]int{0, p.Site}, [2]int{last, p.Site})
						for k := 0; k < randomTargets; k++ {
							targets = append(targets, [2]int{rng.Intn(l.NumRows), rng.Intn(l.SitesPerRow)})
						}
						for _, tg := range targets {
							ts := min(max(tg[1], 0), end)
							f, m := compareNearestFit(t, l, d, in, tg[0], ts, radii)
							found += f
							missed += m
						}
					}
					// Random moves, committed as ECO and Refine commit them.
					for k := 0; k < 8; k++ {
						in := cells[rng.Intn(len(cells))]
						old := l.PlacementOf(in)
						r, s, ok := nearestFit(l, d, in, rng.Intn(l.NumRows), rng.Intn(l.SitesPerRow), radii[rng.Intn(len(radii))])
						if !ok || (r == old.Row && s == old.Site) {
							continue
						}
						if err := l.Place(in, r, s); err != nil {
							t.Fatal(err)
						}
						d.move(in, old.Row, old.Site, r, s)
					}
					checkFreeBits(t, d)
				}
				t.Logf("%s/%s (%d×%d, util %.2f)", fx.name, bk.name, l.NumRows, l.SitesPerRow, util)
			}
			t.Logf("%s/%s: %d searches found a position, %d found none", fx.name, bk.name, found, missed)
			if found == 0 || missed == 0 {
				t.Fatalf("%s/%s: fixture must both find and miss positions", fx.name, bk.name)
			}
		}
	}
}

// scatterLayout places nl's cells at random free positions of an 8-row die
// sized for the target utilization and at least twice the widest cell
// wide; a cell that finds no place in 200 tries stays unplaced.
func scatterLayout(t *testing.T, nl *netlist.Netlist, util float64, rng *rand.Rand) *layout.Layout {
	t.Helper()
	sites, widest := 0, 0
	for _, in := range nl.Insts {
		sites += in.Master.WidthSites
		widest = max(widest, in.Master.WidthSites)
	}
	const rows = 8
	l, err := layout.New(nl, rows, max(int(float64(sites)/util)/rows+1, 2*widest))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range nl.Insts {
		for try := 0; try < 200; try++ {
			r, s := rng.Intn(l.NumRows), rng.Intn(l.SitesPerRow)
			if l.CanPlace(in, r, s) {
				if err := l.Place(in, r, s); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
	}
	return l
}

// randomCap caps each tile at a random density in [0.2, 0.9).
func randomCap(rng *rand.Rand) func(gi, gj int) float64 {
	return func(int, int) float64 { return 0.2 + 0.7*rng.Float64() }
}

// FuzzNearestFit builds a layout, its blockages, the searching cell, the
// target and the radius from the fuzz bytes and requires the bitset search
// to agree with the probe reference, before and after a committed move.
func FuzzNearestFit(f *testing.F) {
	f.Add([]byte{9, 40, 3, 0, 0, 5, 20, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{3, 130, 0, 200, 1, 0, 64, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29})
	f.Add([]byte{20, 70, 2, 12, 3, 0, 0, 100, 0, 255, 3, 33, 66, 99, 1, 2, 4, 8, 16, 32, 64, 128})
	lib := opencell45.MustLoad()
	masters := []string{"INV_X1", "INV_X2", "INV_X4", "BUF_X4", "INV_X8", "HA_X1", "FA_X1", "DFF_X2", "DFFR_X1", "SDFF_X1"}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		rows, spr := 1+next()%24, 12+next()%180
		nl := mixedNetlist(t, lib, masters, 1+next()%60)
		l, err := layout.New(nl, rows, spr)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range nl.Insts {
			r, s := next()%rows, next()*spr/256
			if l.CanPlace(in, r, s) {
				if err := l.Place(in, r, s); err != nil {
					t.Fatal(err)
				}
			}
		}
		for k := next() % 6; k > 0; k-- {
			r0, s0 := next()%(rows+2)-1, next()*(spr+8)/256-4
			l.Blockages = append(l.Blockages, layout.Blockage{
				Row0: r0, Row1: r0 + next()%(rows+1),
				Site0: s0, Site1: s0 + next()*(spr+1)/256,
				MaxDensity: float64(next()) / 255,
			})
		}
		d := newDensityTracker(l)
		in := nl.Insts[next()%len(nl.Insts)]
		radius, near := next()%140, next()%(nearRings+1)
		for round := 0; round < 2; round++ {
			tr, ts := next()%rows, next()*spr/256
			r, s, ok := nearestFitProbing(l, d, in, tr, ts, radius, near)
			wr, ws, wok := nearestFitProbe(l, d, in, tr, ts, radius)
			if r != wr || s != ws || ok != wok {
				t.Fatalf("%s (%d sites at %+v) from (%d, %d) radius %d, %d rings probed: (%d, %d, %v), probe (%d, %d, %v)",
					in.Name, in.Master.WidthSites, l.PlacementOf(in), tr, ts, radius, near, r, s, ok, wr, ws, wok)
			}
			old := l.PlacementOf(in)
			if !ok || !old.Placed || (r == old.Row && s == old.Site) {
				return
			}
			if err := l.Place(in, r, s); err != nil {
				t.Fatal(err)
			}
			d.move(in, old.Row, old.Site, r, s)
		}
	})
}

// BenchmarkNearestFit sweeps targets over an openMSP430-sized layout in
// ECO's shape (radius 120, 8×8 and 32×32 LDA tilings) and Refine's
// (unbounded radius, no blockages).
func BenchmarkNearestFit(b *testing.B) {
	for _, bc := range []struct {
		name          string
		gridN, radius int
	}{{"eco-8x8", 8, 120}, {"eco-32x32", 32, 120}, {"refine", 0, 0}} {
		b.Run(bc.name, func(b *testing.B) {
			nl := chainNetlist(b, 16, 60)
			l, err := Global(nl, GlobalOptions{TargetUtil: 0.7, Seed: 3})
			if err != nil {
				b.Fatal(err)
			}
			if bc.gridN > 0 {
				addTiling(l, bc.gridN, fixedCap)
			}
			d := newDensityTracker(l)
			cells := oneCellPerWidth(l)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, in := range cells {
					for tr := 0; tr < l.NumRows; tr += 2 {
						for ts := 0; ts < l.SitesPerRow; ts += 3 {
							_, _, ok := nearestFit(l, d, in, tr, ts, bc.radius)
							benchFound = benchFound || ok
						}
					}
				}
			}
		})
	}
}

var benchFound bool
