package place

import (
	"fmt"
	"math"
	"testing"

	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/opencell45"
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
	moved := Refine(l, RefineOptions{Seed: 11})
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
	Refine(l, RefineOptions{Seed: 1})
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
