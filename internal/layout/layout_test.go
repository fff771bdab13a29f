package layout

import (
	"fmt"
	"testing"
	"testing/quick"

	"gdsiiguard/internal/geom"
	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/opencell45"
)

// toyNetlist builds a three-cell netlist: an inverter and a NAND gate
// feeding a flip-flop whose clock net comes from the clk port.
func toyNetlist(tb testing.TB) *netlist.Netlist {
	tb.Helper()
	must := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	nl := netlist.New("toy", opencell45.MustLoad())
	for _, p := range []struct {
		name string
		dir  netlist.PortDir
	}{{"in0", netlist.In}, {"in1", netlist.In}, {"clk", netlist.In}, {"out0", netlist.Out}} {
		port, err := nl.AddPort(p.name, p.dir)
		must(err)
		n, err := nl.AddNet(p.name)
		must(err)
		must(nl.ConnectPort(port, n))
	}
	for _, w := range []string{"n1", "n2"} {
		_, err := nl.AddNet(w)
		must(err)
	}
	for _, c := range []struct {
		name, master string
		pins         [][2]string // pin, net
	}{
		{"u1", "INV_X1", [][2]string{{"A", "in0"}, {"ZN", "n1"}}},
		{"u2", "NAND2_X1", [][2]string{{"A1", "n1"}, {"A2", "in1"}, {"ZN", "n2"}}},
		{"u3", "DFF_X1", [][2]string{{"D", "n2"}, {"CK", "clk"}, {"Q", "out0"}}},
	} {
		in, err := nl.AddInstance(c.name, c.master)
		must(err)
		for _, pn := range c.pins {
			must(nl.Connect(in, pn[0], nl.Net(pn[1])))
		}
	}
	nl.Net("clk").IsClock = true
	return nl
}

func toyLayout(t testing.TB) *Layout {
	t.Helper()
	l, err := New(toyNetlist(t), 4, 40)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewRejectsBadCore(t *testing.T) {
	lib := opencell45.MustLoad()
	nl := netlist.New("x", lib)
	if _, err := New(nl, 0, 10); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := New(nl, 10, -1); err == nil {
		t.Error("negative sites accepted")
	}
}

func TestPlaceUnplace(t *testing.T) {
	l := toyLayout(t)
	u1 := l.Netlist.Instance("u1") // INV_X1, 2 sites
	if err := l.Place(u1, 1, 5); err != nil {
		t.Fatalf("Place: %v", err)
	}
	p := l.PlacementOf(u1)
	if !p.Placed || p.Row != 1 || p.Site != 5 {
		t.Fatalf("placement = %+v", p)
	}
	if l.At(1, 5) != u1 || l.At(1, 6) != u1 {
		t.Error("occupancy wrong")
	}
	if l.At(1, 7) != nil {
		t.Error("site 7 should be free")
	}
	l.Unplace(u1)
	if l.At(1, 5) != nil || l.PlacementOf(u1).Placed {
		t.Error("unplace failed")
	}
}

func TestPlaceOverlapRejected(t *testing.T) {
	l := toyLayout(t)
	u1 := l.Netlist.Instance("u1")
	u2 := l.Netlist.Instance("u2") // 3 sites
	if err := l.Place(u1, 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := l.Place(u2, 0, 9); err == nil {
		t.Error("overlap accepted")
	}
	if err := l.Place(u2, 0, 12); err != nil {
		t.Errorf("adjacent placement rejected: %v", err)
	}
	// Out of core.
	u3 := l.Netlist.Instance("u3") // 9 sites
	if err := l.Place(u3, 0, 38); err == nil {
		t.Error("off-edge placement accepted")
	}
	if err := l.Place(u3, 4, 0); err == nil {
		t.Error("row out of range accepted")
	}
}

func TestReplaceMovesCell(t *testing.T) {
	l := toyLayout(t)
	u1 := l.Netlist.Instance("u1")
	_ = l.Place(l.Netlist.Instance("u2"), 1, 0)
	_ = l.Place(l.Netlist.Instance("u3"), 1, 10)
	_ = l.Place(u1, 0, 0)
	if err := l.Place(u1, 2, 20); err != nil {
		t.Fatalf("re-place: %v", err)
	}
	if l.At(0, 0) != nil {
		t.Error("old sites not released")
	}
	if l.At(2, 20) != u1 {
		t.Error("new sites not owned")
	}
	if err := l.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestShiftLeftRight(t *testing.T) {
	l := toyLayout(t)
	u1 := l.Netlist.Instance("u1")
	u2 := l.Netlist.Instance("u2")
	_ = l.Place(u1, 0, 4)
	_ = l.Place(u2, 0, 6) // adjacent on the right of u1
	if err := l.ShiftLeft(u1); err != nil {
		t.Fatalf("ShiftLeft: %v", err)
	}
	if l.PlacementOf(u1).Site != 3 {
		t.Error("u1 did not move")
	}
	// u2 blocked on the left by u1's new right edge? u1 at 3..4, u2 at 6..8.
	if err := l.ShiftLeft(u2); err != nil {
		t.Fatalf("u2 shift into free site 5: %v", err)
	}
	if err := l.ShiftLeft(u2); err == nil {
		t.Error("shift into u1 accepted")
	}
	// Edge condition.
	for l.PlacementOf(u1).Site > 0 {
		if err := l.ShiftLeft(u1); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.ShiftLeft(u1); err == nil {
		t.Error("shift past row start accepted")
	}
	// Fixed cell refuses to move.
	u1.Fixed = true
	if err := l.ShiftRight(u1); err == nil {
		t.Error("fixed cell moved")
	}
}

func TestFreeRuns(t *testing.T) {
	l := toyLayout(t)
	u1 := l.Netlist.Instance("u1") // 2 sites
	u2 := l.Netlist.Instance("u2") // 3 sites
	_ = l.Place(u1, 0, 5)
	_ = l.Place(u2, 0, 20)
	runs := l.FreeRuns(0)
	want := []SiteRun{{0, 0, 5}, {0, 7, 13}, {0, 23, 17}}
	if len(runs) != len(want) {
		t.Fatalf("runs = %v", runs)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Errorf("run %d = %v, want %v", i, runs[i], want[i])
		}
	}
	// Fully free row is one run.
	if runs := l.FreeRuns(3); len(runs) != 1 || runs[0].Len != 40 {
		t.Errorf("free row runs = %v", runs)
	}
}

func TestRowCells(t *testing.T) {
	l := toyLayout(t)
	u1 := l.Netlist.Instance("u1")
	u2 := l.Netlist.Instance("u2")
	_ = l.Place(u2, 1, 0)
	_ = l.Place(u1, 1, 10)
	cells := l.RowCells(1)
	if len(cells) != 2 || cells[0] != u2 || cells[1] != u1 {
		t.Errorf("RowCells = %v", cells)
	}
	if len(l.RowCells(2)) != 0 {
		t.Error("empty row has cells")
	}
}

func TestDensityAndUtilization(t *testing.T) {
	l := toyLayout(t)
	if l.Utilization() != 0 {
		t.Error("empty core utilization != 0")
	}
	u3 := l.Netlist.Instance("u3") // 9 sites
	_ = l.Place(u3, 0, 0)
	wantUtil := 9.0 / 160.0
	if got := l.Utilization(); got < wantUtil-1e-9 || got > wantUtil+1e-9 {
		t.Errorf("Utilization = %g, want %g", got, wantUtil)
	}
	if d := l.RegionDensity(0, 1, 0, 9); d != 1.0 {
		t.Errorf("RegionDensity over cell = %g", d)
	}
	if d := l.RegionDensity(1, 4, 0, 40); d != 0 {
		t.Errorf("empty region density = %g", d)
	}
	// Clipped region.
	if d := l.RegionDensity(-5, 99, -5, 999); d < wantUtil-1e-9 || d > wantUtil+1e-9 {
		t.Errorf("clipped density = %g, want %g", d, wantUtil)
	}
	if d := l.RegionDensity(2, 2, 0, 0); d != 0 {
		t.Errorf("empty-extent density = %g", d)
	}
}

func TestGeometryConversions(t *testing.T) {
	l := toyLayout(t)
	lib := l.Lib()
	core := l.CoreRect()
	if core.W() != int64(40)*lib.Site.Width || core.H() != int64(4)*lib.Site.Height {
		t.Errorf("core = %v", core)
	}
	p := l.SiteDBU(2, 3)
	if p.X != 3*lib.Site.Width || p.Y != 2*lib.Site.Height {
		t.Errorf("SiteDBU = %v", p)
	}
	u1 := l.Netlist.Instance("u1")
	_ = l.Place(u1, 2, 3)
	r := l.CellRect(u1)
	if r.Lo != p || r.W() != 2*lib.Site.Width || r.H() != lib.Site.Height {
		t.Errorf("CellRect = %v", r)
	}
	if !core.ContainsRect(r) {
		t.Error("cell outside core")
	}
	u2 := l.Netlist.Instance("u2")
	if !l.CellRect(u2).Empty() {
		t.Error("unplaced cell should have empty rect")
	}
}

func TestPortsAndHPWL(t *testing.T) {
	l := toyLayout(t)
	l.SpreadPorts()
	if len(l.PortPos) != 4 {
		t.Fatalf("ports located = %d", len(l.PortPos))
	}
	core := l.CoreRect()
	for name, p := range l.PortPos {
		onEdge := p.X == core.Lo.X || p.X == core.Hi.X || p.Y == core.Lo.Y || p.Y == core.Hi.Y
		if !onEdge {
			t.Errorf("port %s at %v not on boundary", name, p)
		}
	}
	u1 := l.Netlist.Instance("u1")
	u2 := l.Netlist.Instance("u2")
	u3 := l.Netlist.Instance("u3")
	_ = l.Place(u1, 0, 0)
	_ = l.Place(u2, 1, 10)
	_ = l.Place(u3, 3, 20)
	n1 := l.Netlist.Net("n1")
	if l.NetHPWL(n1) <= 0 {
		t.Error("HPWL of spread net should be positive")
	}
	if l.TotalHPWL() < l.NetHPWL(n1) {
		t.Error("TotalHPWL below single net")
	}
	// Terminal positions resolve.
	if _, ok := l.TermPos(n1.Driver); !ok {
		t.Error("driver position missing")
	}
}

func TestBlockages(t *testing.T) {
	l := toyLayout(t)
	l.AddBlockage(Blockage{Row0: 0, Row1: 2, Site0: 0, Site1: 20, MaxDensity: 0.5})
	l.AddBlockage(Blockage{Row0: 1, Row1: 2, Site0: 10, Site1: 30, MaxDensity: 0.2})
	if d := l.BlockageAt(0, 5); d != 0.5 {
		t.Errorf("BlockageAt(0,5) = %g", d)
	}
	if d := l.BlockageAt(1, 15); d != 0.2 { // overlapping: min wins
		t.Errorf("BlockageAt(1,15) = %g", d)
	}
	if d := l.BlockageAt(3, 35); d != 1.0 {
		t.Errorf("uncovered site = %g", d)
	}
	l.ClearBlockages()
	if len(l.Blockages) != 0 {
		t.Error("ClearBlockages failed")
	}
	// Clipping.
	l.AddBlockage(Blockage{Row0: -5, Row1: 99, Site0: -5, Site1: 999, MaxDensity: 0.1})
	b := l.Blockages[0]
	if b.Row0 != 0 || b.Row1 != 4 || b.Site0 != 0 || b.Site1 != 40 {
		t.Errorf("blockage not clipped: %+v", b)
	}
}

func TestCloneIndependence(t *testing.T) {
	l := toyLayout(t)
	u1 := l.Netlist.Instance("u1")
	_ = l.Place(u1, 0, 0)
	_ = l.Place(l.Netlist.Instance("u2"), 1, 0)
	_ = l.Place(l.Netlist.Instance("u3"), 2, 0)
	l.SpreadPorts()
	l.NDR.Scale[0] = 1.5
	l.AddBlockage(Blockage{Row0: 0, Row1: 1, Site0: 0, Site1: 10, MaxDensity: 0.3})

	c := l.Clone()
	if err := c.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	cu1 := c.Netlist.Instance("u1")
	if !c.PlacementOf(cu1).Placed {
		t.Fatal("placement lost in clone")
	}
	// Mutations to clone do not leak.
	c.Unplace(cu1)
	if !l.PlacementOf(u1).Placed {
		t.Error("unplace leaked to original")
	}
	c.NDR.Scale[0] = 1.2
	if l.NDR.Scale[0] != 1.5 {
		t.Error("NDR aliased")
	}
	c.ClearBlockages()
	if len(l.Blockages) != 1 {
		t.Error("blockages aliased")
	}
	delete(c.PortPos, "clk")
	if _, ok := l.PortPos["clk"]; !ok {
		t.Error("PortPos aliased")
	}
}

func TestValidateDetectsUnplacedFunctional(t *testing.T) {
	l := toyLayout(t)
	if err := l.Validate(); err == nil {
		t.Error("unplaced functional cells accepted")
	}
	for i, name := range []string{"u1", "u2", "u3"} {
		if err := l.Place(l.Netlist.Instance(name), i, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestGrowAfterNetlistExtension(t *testing.T) {
	l := toyLayout(t)
	for i, name := range []string{"u1", "u2", "u3"} {
		_ = l.Place(l.Netlist.Instance(name), i, 0)
	}
	// A fill-based defense adds fillers after layout creation.
	f, err := l.Netlist.AddInstance("fill0", "FILLCELL_X4")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Place(f, 3, 0); err != nil {
		t.Fatalf("place new filler: %v", err)
	}
	if err := l.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// Property: Place then Unplace restores the exact free-site count.
func TestQuickPlaceUnplaceInvariant(t *testing.T) {
	l := toyLayout(t)
	u2 := l.Netlist.Instance("u2")
	before := l.FreeSites()
	f := func(row, site uint8) bool {
		r := int(row) % l.NumRows
		s := int(site) % l.SitesPerRow
		if err := l.Place(u2, r, s); err != nil {
			return l.FreeSites() == before // rejected: nothing changed
		}
		if l.FreeSites() != before-u2.Master.WidthSites {
			return false
		}
		l.Unplace(u2)
		return l.FreeSites() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: FreeRuns lengths always sum to the free sites of that row.
func TestQuickFreeRunsSum(t *testing.T) {
	l := toyLayout(t)
	u1 := l.Netlist.Instance("u1")
	u2 := l.Netlist.Instance("u2")
	u3 := l.Netlist.Instance("u3")
	f := func(a, b, c uint8) bool {
		for _, in := range []*netlist.Instance{u1, u2, u3} {
			l.Unplace(in)
		}
		_ = l.Place(u1, 0, int(a)%l.SitesPerRow)
		_ = l.Place(u2, 0, int(b)%l.SitesPerRow)
		_ = l.Place(u3, 0, int(c)%l.SitesPerRow)
		sum := 0
		for _, r := range l.FreeRuns(0) {
			sum += r.Len
		}
		placed := 0
		for _, in := range []*netlist.Instance{u1, u2, u3} {
			if l.PlacementOf(in).Placed {
				placed += in.Master.WidthSites
			}
		}
		return sum == l.SitesPerRow-placed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCoreRectOrigin(t *testing.T) {
	l := toyLayout(t)
	l.Origin = geom.Pt(1000, 2000)
	core := l.CoreRect()
	if core.Lo != geom.Pt(1000, 2000) {
		t.Errorf("core.Lo = %v", core.Lo)
	}
	if p := l.SiteDBU(0, 0); p != geom.Pt(1000, 2000) {
		t.Errorf("SiteDBU(0,0) = %v", p)
	}
}

func TestAdoptPlacements(t *testing.T) {
	l := toyLayout(t)
	u1 := l.Netlist.Instance("u1")
	u2 := l.Netlist.Instance("u2")
	_ = l.Place(u1, 0, 0)
	_ = l.Place(u2, 1, 5)
	snap := l.Clone()
	// Mutate, then restore.
	_ = l.Place(u1, 3, 20)
	l.Unplace(u2)
	if err := l.AdoptPlacements(snap); err != nil {
		t.Fatalf("AdoptPlacements: %v", err)
	}
	if p := l.PlacementOf(u1); p.Row != 0 || p.Site != 0 {
		t.Errorf("u1 = %+v", p)
	}
	if p := l.PlacementOf(u2); !p.Placed || p.Row != 1 || p.Site != 5 {
		t.Errorf("u2 = %+v", p)
	}
	if l.At(3, 20) != nil {
		t.Error("stale occupancy after restore")
	}
	// Shape mismatch rejected.
	other, _ := New(l.Netlist.Clone(), l.NumRows+1, l.SitesPerRow)
	if err := l.AdoptPlacements(other); err == nil {
		t.Error("shape mismatch accepted")
	}
}

// validToy is the toy layout with u1, u2 and u3 placed at site 2 of rows
// 0–2 and an unplaced filler fill0 added after the layout was built.
func validToy(t *testing.T) *Layout {
	t.Helper()
	l := toyLayout(t)
	for i, name := range []string{"u1", "u2", "u3"} {
		if err := l.Place(l.Netlist.Instance(name), i, 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Netlist.AddInstance("fill0", "FILLCELL_X4"); err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("valid toy: %v", err)
	}
	return l
}

// TestValidateAllocatesNothing pins Validate of a consistent layout at
// zero allocations: drc.Check runs it on every evaluation. Row 3 holds 30
// more cells, so a tally of the site owners would outgrow what the
// compiler can keep on the stack.
func TestValidateAllocatesNothing(t *testing.T) {
	l := validToy(t)
	for s := 0; s < 30; s++ {
		f, err := l.Netlist.AddInstance(fmt.Sprintf("tie%d", s), "FILLCELL_X1")
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Place(f, 3, s); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := l.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Validate allocates %v times", n)
	}
}

// TestValidateRejectsCorruptLayouts corrupts the placement table or the
// occupancy grid one way at a time; Validate must reject each with the
// message that names the fault.
func TestValidateRejectsCorruptLayouts(t *testing.T) {
	id := func(l *Layout, name string) int { return l.Netlist.Instance(name).ID }
	site := func(l *Layout, row, s int) *int32 { return &l.occ[row*l.SitesPerRow+s] }
	for _, c := range []struct {
		name    string
		corrupt func(l *Layout)
		want    string
	}{
		{"unplaced functional", func(l *Layout) { l.Unplace(l.Netlist.Instance("u2")) },
			"layout: functional instance u2 unplaced"},
		{"out of core", func(l *Layout) { l.placements[id(l, "u3")].Row = l.NumRows },
			"layout: u3 out of core at (4,2)"},
		{"site lost", func(l *Layout) { *site(l, 1, 3) = 0 },
			"layout: site (1,3) not owned by u2"},
		{"site taken by another", func(l *Layout) { *site(l, 0, 2) = int32(id(l, "u3") + 1) },
			"layout: site (0,2) not owned by u1"},
		{"stray site of a placed cell", func(l *Layout) { *site(l, 3, 30) = int32(id(l, "u1") + 1) },
			"layout: u1 owns 3 sites, master is 2 wide"},
		{"site of an unplaced filler", func(l *Layout) { *site(l, 3, 10) = int32(id(l, "fill0") + 1) },
			"layout: unplaced instance fill0 owns 1 sites"},
		{"unplaced cell keeps its sites", func(l *Layout) {
			if err := l.Place(l.Netlist.Instance("fill0"), 3, 20); err != nil {
				t.Fatal(err)
			}
			l.placements[id(l, "fill0")].Placed = false
		}, "layout: unplaced instance fill0 owns 4 sites"},
	} {
		t.Run(c.name, func(t *testing.T) {
			l := validToy(t)
			c.corrupt(l)
			err := l.Validate()
			if err == nil || err.Error() != c.want {
				t.Errorf("Validate = %v, want %q", err, c.want)
			}
		})
	}
}
