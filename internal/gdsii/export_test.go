package gdsii

import (
	"bytes"
	"testing"

	"gdsiiguard/internal/geom"
	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/opencell45"
)

// ToyNetlist builds a three-cell netlist: an inverter and a NAND gate
// feeding a flip-flop whose clock net comes from the clk port. It is
// exported for the external gdsii_test package.
func ToyNetlist(tb testing.TB) *netlist.Netlist {
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

func exportToy(t *testing.T) (*layout.Layout, *Library) {
	t.Helper()
	nl := ToyNetlist(t)
	nl.Instance("u3").SecurityCritical = true
	l, _ := layout.New(nl, 4, 40)
	_ = l.Place(nl.Instance("u1"), 0, 0)
	_ = l.Place(nl.Instance("u2"), 1, 5)
	_ = l.Place(nl.Instance("u3"), 2, 10)
	wires := []Wire{
		{Metal: 1, Width: 70, Pts: []geom.Point{geom.Pt(0, 700), geom.Pt(1000, 700)}},
		{Metal: 2, Width: 70, Pts: []geom.Point{geom.Pt(1000, 700), geom.Pt(1000, 2100)}},
	}
	g, err := FromLayout(l, wires)
	if err != nil {
		t.Fatal(err)
	}
	return l, g
}

func TestFromLayoutStructure(t *testing.T) {
	_, g := exportToy(t)
	// One struct per used master + top.
	for _, name := range []string{"INV_X1", "NAND2_X1", "DFF_X1", "toy"} {
		if g.Struct(name) == nil {
			t.Errorf("struct %s missing", name)
		}
	}
	top := g.Struct("toy")
	stats := g.Stats()
	if stats.SRefs != 3 {
		t.Errorf("SRefs = %d, want 3", stats.SRefs)
	}
	if stats.Paths != 2 {
		t.Errorf("Paths = %d, want 2", stats.Paths)
	}
	// Critical-cell label present.
	foundLabel := false
	for _, e := range top.Elements {
		if txt, ok := e.(Text); ok && txt.String == "u3" {
			foundLabel = true
		}
	}
	if !foundLabel {
		t.Error("security-critical label missing")
	}
}

func TestFromLayoutSRefPositions(t *testing.T) {
	l, g := exportToy(t)
	top := g.Struct("toy")
	wantU1 := l.SiteDBU(0, 0)
	found := false
	for _, e := range top.Elements {
		if s, ok := e.(SRef); ok && s.Name == "INV_X1" && s.At == wantU1 {
			found = true
		}
	}
	if !found {
		t.Errorf("u1 SRef at %v missing", wantU1)
	}
}

func TestFromLayoutRoundTripsThroughBinary(t *testing.T) {
	_, g := exportToy(t)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	gs, rs := g.Stats(), got.Stats()
	if gs.Structs != rs.Structs || gs.Boundaries != rs.Boundaries ||
		gs.Paths != rs.Paths || gs.SRefs != rs.SRefs || gs.Texts != rs.Texts ||
		len(gs.LayersUsed) != len(rs.LayersUsed) {
		t.Errorf("stats changed: %+v vs %+v", rs, gs)
	}
}

func TestFromLayoutRejectsBadWire(t *testing.T) {
	nl := ToyNetlist(t)
	l, _ := layout.New(nl, 4, 40)
	_, err := FromLayout(l, []Wire{{Metal: 1, Width: 70, Pts: []geom.Point{geom.Pt(0, 0)}}})
	if err == nil {
		t.Error("single-point wire accepted")
	}
}

func TestFromLayoutSkipsUnplaced(t *testing.T) {
	nl := ToyNetlist(t)
	l, _ := layout.New(nl, 4, 40)
	_ = l.Place(nl.Instance("u1"), 0, 0)
	g, err := FromLayout(l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Stats().SRefs != 1 {
		t.Errorf("SRefs = %d, want 1 (u2/u3 unplaced)", g.Stats().SRefs)
	}
	if g.Struct("NAND2_X1") != nil {
		t.Error("master struct created for unplaced-only cell type")
	}
}
