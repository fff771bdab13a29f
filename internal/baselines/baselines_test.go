package baselines

import (
	"fmt"
	"strings"
	"testing"

	"gdsiiguard/internal/core"
	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/opencell45"
	"gdsiiguard/internal/place"
	"gdsiiguard/internal/sdc"
	"gdsiiguard/internal/security"
)

func buildBase(t testing.TB, chains, stages int, util, periodNS float64) *core.Baseline {
	t.Helper()
	lib := opencell45.MustLoad()
	nl := netlist.New("bl", lib)
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
		ff, _ := nl.AddInstance(fmt.Sprintf("key%d", c), "DFF_X1")
		ff.SecurityCritical = true
		q, _ := nl.AddNet(fmt.Sprintf("q%d", c))
		_ = nl.Connect(ff, "D", prev)
		_ = nl.Connect(ff, "CK", clkNet)
		_ = nl.Connect(ff, "Q", q)
		out, _ := nl.AddPort(fmt.Sprintf("o%d", c), netlist.Out)
		_ = nl.ConnectPort(out, q)
	}
	l, err := place.Global(nl, place.GlobalOptions{TargetUtil: util, RefinePasses: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cons, _ := sdc.ParseString(fmt.Sprintf("create_clock -name clk -period %g [get_ports clk]\n", periodNS))
	base, err := core.EvalBaseline(l, core.FlowConfig{Constraints: cons, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return base
}

func TestBISAFillsAlmostEverything(t *testing.T) {
	base := buildBase(t, 5, 20, 0.5, 5)
	res, err := RunBISA(base)
	if err != nil {
		t.Fatalf("RunBISA: %v", err)
	}
	if err := res.Layout.Validate(); err != nil {
		t.Fatalf("BISA layout invalid: %v", err)
	}
	if err := res.Layout.Netlist.Validate(); err != nil {
		t.Fatalf("BISA netlist invalid: %v", err)
	}
	// Fill raises utilization dramatically.
	if res.Layout.Utilization() < 0.9 {
		t.Errorf("BISA utilization = %g, want ≥ 0.9", res.Layout.Utilization())
	}
	// Security improves massively vs baseline.
	if res.Metrics.Security > 0.3 {
		t.Errorf("BISA security = %g, want < 0.3", res.Metrics.Security)
	}
	// Power overhead is the defense's signature cost.
	if res.Metrics.PowerMW <= base.Metrics.PowerMW {
		t.Error("BISA should raise power")
	}
}

func TestBISAFillIsTamperEvident(t *testing.T) {
	base := buildBase(t, 4, 15, 0.5, 5)
	res, err := RunBISA(base)
	if err != nil {
		t.Fatal(err)
	}
	// Fill cells are functional (observable through test ports), so they
	// do NOT count as exploitable sites.
	nFill := 0
	for _, in := range res.Layout.Netlist.Insts {
		if strings.HasPrefix(in.Name, "bisa_f") {
			nFill++
			if !in.Master.IsFunctional() {
				t.Fatalf("fill cell %s is non-functional", in.Name)
			}
		}
	}
	if nFill == 0 {
		t.Fatal("no fill cells inserted")
	}
	// Test scan-out ports exist.
	found := false
	for _, p := range res.Layout.Netlist.Ports {
		if strings.HasPrefix(p.Name, "bisa_so") {
			found = true
		}
	}
	if !found {
		t.Error("no BISA scan-out port")
	}
}

// Two long chains give a die on which Ba's 25 µm fill radius around the
// two key registers leaves free regions open.
func TestBaFillsOnlyNearAssets(t *testing.T) {
	base := buildBase(t, 2, 1000, 0.5, 5)
	bisa, err := RunBISA(base)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := RunBa(base)
	if err != nil {
		t.Fatalf("RunBa: %v", err)
	}
	if err := ba.Layout.Validate(); err != nil {
		t.Fatalf("Ba layout invalid: %v", err)
	}
	// Ba inserts fewer cells than BISA (local only).
	countFill := func(res *core.Result, prefix string) int {
		n := 0
		for _, in := range res.Layout.Netlist.Insts {
			if strings.HasPrefix(in.Name, prefix) {
				n++
			}
		}
		return n
	}
	nBISA, nBa := countFill(bisa, "bisa_f"), countFill(ba, "ba_f")
	if nBa >= nBISA {
		t.Errorf("Ba inserted %d cells, BISA %d; Ba should be local", nBa, nBISA)
	}
	if nBa == 0 {
		t.Error("Ba inserted nothing")
	}
	// Ba's coverage is discounted: it never beats BISA, and leaves more
	// raw free space on the layout (remote regions stay open).
	if ba.Metrics.Security < bisa.Metrics.Security {
		t.Errorf("Ba security %g better than BISA %g", ba.Metrics.Security, bisa.Metrics.Security)
	}
	if ba.Metrics.Security > 1.0 {
		t.Errorf("Ba security %g worse than baseline", ba.Metrics.Security)
	}
	if ba.Layout.FreeSites() <= bisa.Layout.FreeSites() {
		t.Errorf("Ba free sites %d ≤ BISA %d; local fill should leave more space",
			ba.Layout.FreeSites(), bisa.Layout.FreeSites())
	}
	// And costs less power than BISA.
	if ba.Metrics.PowerMW >= bisa.Metrics.PowerMW {
		t.Errorf("Ba power %g ≥ BISA power %g", ba.Metrics.PowerMW, bisa.Metrics.PowerMW)
	}
}

func TestICASSqueezesFreeSpace(t *testing.T) {
	base := buildBase(t, 5, 20, 0.5, 5)
	res, err := RunICAS(base, 1)
	if err != nil {
		t.Fatalf("RunICAS: %v", err)
	}
	if err := res.Layout.Validate(); err != nil {
		t.Fatalf("ICAS layout invalid: %v", err)
	}
	if res.Layout.Utilization() <= base.Layout.Utilization() {
		t.Errorf("ICAS utilization %g not above baseline %g",
			res.Layout.Utilization(), base.Layout.Utilization())
	}
	if res.Metrics.Security >= 1.0 {
		t.Errorf("ICAS security = %g, want < 1", res.Metrics.Security)
	}
	// The netlist is untouched (no cells added).
	if got, want := len(res.Layout.Netlist.Insts), len(base.Layout.Netlist.Insts); got != want {
		t.Errorf("ICAS changed instance count: %d vs %d", got, want)
	}
}

func TestICASWeakerThanBISA(t *testing.T) {
	base := buildBase(t, 8, 40, 0.5, 5)
	icas, err := RunICAS(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	bisa, err := RunBISA(base)
	if err != nil {
		t.Fatal(err)
	}
	// Paper shape: ICAS leaves the most free space of the defenses.
	if icas.Metrics.Security <= bisa.Metrics.Security {
		t.Errorf("ICAS security %g stronger than BISA %g (paper shape inverted)",
			icas.Metrics.Security, bisa.Metrics.Security)
	}
}

func TestBaselinesDontMutateBase(t *testing.T) {
	base := buildBase(t, 4, 12, 0.5, 5)
	nInsts := len(base.Layout.Netlist.Insts)
	util := base.Layout.Utilization()
	if _, err := RunBISA(base); err != nil {
		t.Fatal(err)
	}
	if _, err := RunBa(base); err != nil {
		t.Fatal(err)
	}
	if _, err := RunICAS(base, 2); err != nil {
		t.Fatal(err)
	}
	if len(base.Layout.Netlist.Insts) != nInsts {
		t.Error("baseline netlist mutated")
	}
	if base.Layout.Utilization() != util {
		t.Error("baseline layout mutated")
	}
	for _, in := range base.Layout.Netlist.CriticalInsts() {
		if in.Fixed {
			t.Error("baseline assets locked by defense run")
			break
		}
	}
}

func TestFillHandlesFragmentedSpace(t *testing.T) {
	base := buildBase(t, 3, 10, 0.7, 5)
	res, err := RunBISA(base)
	if err != nil {
		t.Fatal(err)
	}
	// Fill cells interleave with DFF pipeline stages; assess still works.
	a, err := assessOnly(res.Layout, security.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if a.ERSites > res.Layout.TotalSites()/10 {
		t.Errorf("BISA left %d ER sites of %d total", a.ERSites, res.Layout.TotalSites())
	}
}
