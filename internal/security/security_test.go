package security

import (
	"fmt"
	"testing"

	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/opencell45"
	"gdsiiguard/internal/place"
	"gdsiiguard/internal/route"
	"gdsiiguard/internal/sdc"
	"gdsiiguard/internal/sta"
)

// buildDesign creates chains with the final DFFs marked security-critical.
func buildDesign(t testing.TB, chains, stages int, util float64) *layout.Layout {
	t.Helper()
	lib := opencell45.MustLoad()
	nl := netlist.New("sec", lib)
	clkPort, _ := nl.AddPort("clk", netlist.In)
	clkNet, _ := nl.AddNet("clk")
	clkNet.IsClock = true
	_ = nl.ConnectPort(clkPort, clkNet)
	for c := 0; c < chains; c++ {
		in, _ := nl.AddPort(fmt.Sprintf("i%d", c), netlist.In)
		prev, _ := nl.AddNet(fmt.Sprintf("pi%d", c))
		_ = nl.ConnectPort(in, prev)
		for s := 0; s < stages; s++ {
			g, err := nl.AddInstance(fmt.Sprintf("c%dg%d", c, s), "INV_X1")
			if err != nil {
				t.Fatal(err)
			}
			nx, _ := nl.AddNet(fmt.Sprintf("c%dn%d", c, s))
			_ = nl.Connect(g, "A", prev)
			_ = nl.Connect(g, "ZN", nx)
			prev = nx
		}
		ff, _ := nl.AddInstance(fmt.Sprintf("key_reg%d", c), "DFF_X1")
		ff.SecurityCritical = true
		q, _ := nl.AddNet(fmt.Sprintf("q%d", c))
		_ = nl.Connect(ff, "D", prev)
		_ = nl.Connect(ff, "CK", clkNet)
		_ = nl.Connect(ff, "Q", q)
		out, _ := nl.AddPort(fmt.Sprintf("o%d", c), netlist.Out)
		_ = nl.ConnectPort(out, q)
	}
	l, err := place.Global(nl, place.GlobalOptions{TargetUtil: util, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func timingOf(t testing.TB, l *layout.Layout, periodNS float64) *sta.Result {
	t.Helper()
	c, _ := sdc.ParseString(fmt.Sprintf("create_clock -name clk -period %g [get_ports clk]\n", periodNS))
	r, err := sta.Analyze(l, sta.Options{Constraints: c})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestAssessFindsRegionsInSparseLayout(t *testing.T) {
	l := buildDesign(t, 4, 15, 0.4)
	a, err := Assess(l, nil, nil, DefaultParams())
	if err != nil {
		t.Fatalf("Assess: %v", err)
	}
	if a.Assets != 4 {
		t.Errorf("assets = %d", a.Assets)
	}
	if a.FreeSites == 0 || a.ExploitableSites == 0 {
		t.Errorf("free/exploitable = %d/%d", a.FreeSites, a.ExploitableSites)
	}
	if len(a.Regions) == 0 || a.ERSites == 0 {
		t.Errorf("regions = %d, ERSites = %d", len(a.Regions), a.ERSites)
	}
	// All region weights ≥ threshold, sites sum to ERSites.
	sum := 0
	for _, reg := range a.Regions {
		if reg.Sites < 20 {
			t.Errorf("region weight %d below Thresh_ER", reg.Sites)
		}
		runSum := 0
		for _, run := range reg.Runs {
			runSum += run.Len
		}
		if runSum != reg.Sites {
			t.Errorf("region runs sum %d != weight %d", runSum, reg.Sites)
		}
		sum += reg.Sites
	}
	if sum != a.ERSites {
		t.Errorf("ERSites %d != regions sum %d", a.ERSites, sum)
	}
	if a.ERSites > a.ExploitableSites {
		t.Error("ERSites exceeds exploitable sites")
	}
	if a.ExploitableSites > a.FreeSites {
		t.Error("exploitable sites exceed free sites")
	}
}

func TestThresholdFiltersSmallRegions(t *testing.T) {
	l := buildDesign(t, 4, 15, 0.4)
	loose, err := Assess(l, nil, nil, Params{ThreshER: 1})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := Assess(l, nil, nil, Params{ThreshER: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(strict.Regions) > len(loose.Regions) {
		t.Error("higher threshold should not add regions")
	}
	if strict.ERSites > loose.ERSites {
		t.Error("higher threshold should not add ER sites")
	}
	// With threshold 1 every exploitable site is in a region.
	if loose.ERSites != loose.ExploitableSites {
		t.Errorf("thresh=1: ERSites %d != exploitable %d", loose.ERSites, loose.ExploitableSites)
	}
}

func TestTightTimingShrinksExploitableDistance(t *testing.T) {
	l := buildDesign(t, 4, 30, 0.4)
	loose, err := Assess(l, nil, timingOf(t, l, 50), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Assess(l, nil, timingOf(t, l, 0.8), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if tight.ExploitableSites > loose.ExploitableSites {
		t.Errorf("tight timing has MORE exploitable sites: %d vs %d",
			tight.ExploitableSites, loose.ExploitableSites)
	}
}

func TestNoAssetsMeansNoExploitableSites(t *testing.T) {
	l := buildDesign(t, 3, 10, 0.4)
	for _, in := range l.Netlist.Insts {
		in.SecurityCritical = false
	}
	a, err := Assess(l, nil, nil, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if a.ExploitableSites != 0 || a.ERSites != 0 || len(a.Regions) != 0 {
		t.Errorf("no assets but exploitable = %d, regions = %d", a.ExploitableSites, len(a.Regions))
	}
	if a.FreeSites == 0 {
		t.Error("free sites should still be counted")
	}
}

func TestERTracksRequiresRoutes(t *testing.T) {
	l := buildDesign(t, 4, 15, 0.4)
	noRoutes, err := Assess(l, nil, nil, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if noRoutes.ERTracks != 0 {
		t.Error("ERTracks nonzero without routes")
	}
	routes, err := route.Route(l, route.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	withRoutes, err := Assess(l, routes, nil, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if withRoutes.ERSites > 0 && withRoutes.ERTracks <= 0 {
		t.Errorf("ERTracks = %g with %d ER sites", withRoutes.ERTracks, withRoutes.ERSites)
	}
}

func TestFillerCellsRemainExploitable(t *testing.T) {
	l := buildDesign(t, 3, 10, 0.4)
	base, err := Assess(l, nil, nil, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Fill some free runs with non-functional fillers.
	fills := 0
	for r := 0; r < l.NumRows && fills < 8; r++ {
		for _, run := range l.FreeRuns(r) {
			if run.Len >= 2 {
				f, err := l.Netlist.AddInstance(fmt.Sprintf("fl%d", fills), "FILLCELL_X2")
				if err != nil {
					t.Fatal(err)
				}
				if err := l.Place(f, r, run.Start); err != nil {
					t.Fatal(err)
				}
				fills++
				break
			}
		}
	}
	after, err := Assess(l, nil, nil, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Non-functional fill does not reduce exploitable sites (Def. 2.2).
	if after.ExploitableSites != base.ExploitableSites {
		t.Errorf("filler fill changed exploitable sites: %d -> %d",
			base.ExploitableSites, after.ExploitableSites)
	}
}

func TestScore(t *testing.T) {
	base := &Assessment{ERSites: 1000, ERTracks: 500}
	opt := &Assessment{ERSites: 100, ERTracks: 25}
	s := Score(opt, base, 0.5)
	want := 0.5*0.1 + 0.5*0.05
	if s < want-1e-12 || s > want+1e-12 {
		t.Errorf("Score = %g, want %g", s, want)
	}
	if got := Score(base, base, 0.5); got != 1.0 {
		t.Errorf("self score = %g, want 1", got)
	}
	// Degenerate baseline contributes nothing.
	if got := Score(opt, &Assessment{}, 0.5); got != 0 {
		t.Errorf("zero baseline score = %g", got)
	}
}

func TestAssessParamValidation(t *testing.T) {
	l := buildDesign(t, 2, 5, 0.5)
	if _, err := Assess(l, nil, nil, Params{ThreshER: 0}); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := Assess(l, nil, nil, Params{ThreshER: 20, TrojanCell: "GHOST"}); err == nil {
		t.Error("unknown trojan cell accepted")
	}
}

func TestRegionConnectivityAcrossRows(t *testing.T) {
	// Hand-build a layout: two rows fully free, vertically adjacent →
	// a single region spanning both rows.
	lib := opencell45.MustLoad()
	nl := netlist.New("grid", lib)
	ff, _ := nl.AddInstance("key", "DFF_X1")
	ff.SecurityCritical = true
	clk, _ := nl.AddNet("ck")
	clk.IsClock = true
	p, _ := nl.AddPort("ck", netlist.In)
	_ = nl.ConnectPort(p, clk)
	_ = nl.Connect(ff, "CK", clk)
	q, _ := nl.AddNet("q")
	_ = nl.Connect(ff, "Q", q)
	qp, _ := nl.AddPort("q", netlist.Out)
	_ = nl.ConnectPort(qp, q)
	l, _ := layout.New(nl, 2, 30)
	_ = l.Place(ff, 0, 0)
	a, err := Assess(l, nil, nil, Params{ThreshER: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Regions) != 1 {
		t.Fatalf("regions = %d, want 1 connected region", len(a.Regions))
	}
	// 2 rows × 30 sites − 9 (DFF) = 51 free sites.
	if a.Regions[0].Sites != 51 {
		t.Errorf("region weight = %d, want 51", a.Regions[0].Sites)
	}
}

func TestDisconnectedRegions(t *testing.T) {
	// A full row of functional cells splits the free space of a 3-row core
	// into two regions.
	lib := opencell45.MustLoad()
	nl := netlist.New("split", lib)
	ff, _ := nl.AddInstance("key", "DFF_X1")
	ff.SecurityCritical = true
	clk, _ := nl.AddNet("ck")
	clk.IsClock = true
	p, _ := nl.AddPort("ck", netlist.In)
	_ = nl.ConnectPort(p, clk)
	_ = nl.Connect(ff, "CK", clk)
	q, _ := nl.AddNet("q")
	_ = nl.Connect(ff, "Q", q)
	qp, _ := nl.AddPort("q", netlist.Out)
	_ = nl.ConnectPort(qp, q)
	l, _ := layout.New(nl, 3, 27)
	_ = l.Place(ff, 1, 0)
	// Fill rest of middle row with INVs (functional barriers).
	for i, s := 0, 9; s+2 <= 27; i, s = i+1, s+2 {
		inv, _ := nl.AddInstance(fmt.Sprintf("b%d", i), "INV_X1")
		wireIn, _ := nl.AddNet(fmt.Sprintf("wi%d", i))
		pi, _ := nl.AddPort(fmt.Sprintf("pi%d", i), netlist.In)
		_ = nl.ConnectPort(pi, wireIn)
		_ = nl.Connect(inv, "A", wireIn)
		wireOut, _ := nl.AddNet(fmt.Sprintf("wo%d", i))
		_ = nl.Connect(inv, "ZN", wireOut)
		po, _ := nl.AddPort(fmt.Sprintf("po%d", i), netlist.Out)
		_ = nl.ConnectPort(po, wireOut)
		if err := l.Place(inv, 1, s); err != nil {
			t.Fatal(err)
		}
	}
	a, err := Assess(l, nil, nil, Params{ThreshER: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Regions) != 2 {
		t.Fatalf("regions = %d, want 2 (top row + bottom row)", len(a.Regions))
	}
}

func BenchmarkAssess(b *testing.B) {
	l := buildDesign(b, 10, 40, 0.55)
	routes, err := route.Route(l, route.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	p := DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assess(l, routes, nil, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssessWorkspace is BenchmarkAssess in a workspace that has
// already held one assessment of the layout.
func BenchmarkAssessWorkspace(b *testing.B) {
	l := buildDesign(b, 10, 40, 0.55)
	routes, err := route.Route(l, route.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	p := DefaultParams()
	var ws Workspace
	if _, err := ws.Assess(l, routes, nil, p); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ws.Assess(l, routes, nil, p); err != nil {
			b.Fatal(err)
		}
	}
}
