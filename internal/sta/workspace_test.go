package sta_test

import (
	"math"
	"testing"

	"gdsiiguard/internal/benchdesigns"
	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/route"
	"gdsiiguard/internal/sta"
)

// sameResult requires got to equal want bit for bit: TNS, WNS, endpoint
// counts, period, and every per-net arrival, wire delay, required time and
// load and per-instance slack.
func sameResult(t *testing.T, name string, got, want *sta.Result) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.TNS, want.TNS) || !same(got.WNS, want.WNS) || !same(got.PeriodPS, want.PeriodPS) ||
		got.Endpoints != want.Endpoints || got.Violating != want.Violating {
		t.Fatalf("%s: TNS/WNS/period/endpoints/violating %v/%v/%v/%d/%d, want %v/%v/%v/%d/%d", name,
			got.TNS, got.WNS, got.PeriodPS, got.Endpoints, got.Violating,
			want.TNS, want.WNS, want.PeriodPS, want.Endpoints, want.Violating)
	}
	ga, gw, gr, gc := got.NetArrays()
	wa, ww, wr, wc := want.NetArrays()
	if len(ga) != len(wa) || len(gw) != len(ww) || len(gr) != len(wr) || len(gc) != len(wc) {
		t.Fatalf("%s: per-net arrays of %d/%d/%d/%d nets, want %d", name, len(ga), len(gw), len(gr), len(gc), len(wa))
	}
	for id := range wa {
		if !same(ga[id], wa[id]) || !same(gw[id], ww[id]) || !same(gr[id], wr[id]) || !same(gc[id], wc[id]) {
			t.Fatalf("%s: net %d arrival/wire/required/cap %v/%v/%v/%v, want %v/%v/%v/%v", name, id,
				ga[id], gw[id], gr[id], gc[id], wa[id], ww[id], wr[id], wc[id])
		}
	}
	gs, ws := got.InstSlacks(), want.InstSlacks()
	if len(gs) != len(ws) {
		t.Fatalf("%s: %d instance slacks, want %d", name, len(gs), len(ws))
	}
	for id := range ws {
		if !same(gs[id], ws[id]) {
			t.Fatalf("%s: instance %d slack %v, want %v", name, id, gs[id], ws[id])
		}
	}
}

// TestAnalyzeWorkspaceMatchesFresh runs one workspace over PRESENT and
// openMSP430_2, unrouted and routed under three NDR vectors, alternating
// the designs so every analysis follows one of the other design, and over
// PRESENT with an undriven net, and requires each result to equal a fresh
// AnalyzeWithGraph bit for bit.
func TestAnalyzeWorkspaceMatchesFresh(t *testing.T) {
	ndrs := [][]float64{
		nil, // the default rule
		{1, 1, 1.5, 1.5, 2, 2, 1.25, 1, 3, 1},
		{2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
	}
	type analysis struct {
		name string
		d    *benchdesigns.Design
		g    *sta.Graph
		opt  sta.Options
		ndr  []float64
	}
	var runs []analysis
	for i := -1; i < len(ndrs); i++ {
		for _, name := range []string{"PRESENT", "openMSP430_2"} {
			d, err := benchdesigns.Build(name)
			if err != nil {
				t.Fatal(err)
			}
			g, err := sta.BuildGraph(d.Layout.Netlist)
			if err != nil {
				t.Fatal(err)
			}
			a := analysis{name: name + "/unrouted", d: d, g: g, opt: sta.Options{Constraints: d.Cons}}
			if i >= 0 {
				a.name, a.ndr = name+"/routed", ndrs[i]
				if a.ndr != nil {
					d.Layout.NDR.Scale = append(d.Layout.NDR.Scale[:0], a.ndr...)
				}
				routes, err := route.Route(d.Layout, route.Options{Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				a.opt.Routes = routes
			}
			runs = append(runs, a)
		}
	}
	// A net nothing drives, observed at an output port: its arrival is
	// never propagated, so a stale one would show in TNS.
	d, err := benchdesigns.Build("PRESENT")
	if err != nil {
		t.Fatal(err)
	}
	nl := d.Layout.Netlist
	n, err := nl.AddNet("undriven")
	if err != nil {
		t.Fatal(err)
	}
	port, err := nl.AddPort("undriven_out", netlist.Out)
	if err != nil {
		t.Fatal(err)
	}
	if err := nl.ConnectPort(port, n); err != nil {
		t.Fatal(err)
	}
	g, err := sta.BuildGraph(nl)
	if err != nil {
		t.Fatal(err)
	}
	runs = append(runs, analysis{name: "PRESENT/undriven", d: d, g: g, opt: sta.Options{Constraints: d.Cons}})

	var ws sta.Workspace
	for pass := 0; pass < 2; pass++ {
		for i := range runs {
			a := runs[i]
			if pass == 1 {
				a = runs[len(runs)-1-i]
			}
			want, err := sta.AnalyzeWithGraph(a.d.Layout, a.opt, a.g)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ws.Analyze(a.d.Layout, a.opt, a.g)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, a.name, got, want)
		}
	}
	// A nil graph levelizes, as AnalyzeWithGraph does.
	a := runs[0]
	want, err := sta.AnalyzeWithGraph(a.d.Layout, a.opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ws.Analyze(a.d.Layout, a.opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph() == nil || got.Graph() == a.g {
		t.Fatal("a nil graph was not levelized")
	}
	sameResult(t, a.name+"/nil graph", got, want)
}

// TestAnalyzeWorkspaceAllocs pins what a recycled sequential analysis
// allocates: nothing, on designs of different sizes and depths. An
// analysis that sizes its arrays per call, or builds a closure per level
// or depth bucket, allocates on every call.
func TestAnalyzeWorkspaceAllocs(t *testing.T) {
	defer sta.SetWorkers(sta.Workers())
	sta.SetWorkers(1)
	for _, name := range []string{"PRESENT", "openMSP430_2", "AES_1"} {
		d, err := benchdesigns.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		l := d.Layout
		g, err := sta.BuildGraph(l.Netlist)
		if err != nil {
			t.Fatal(err)
		}
		routes, err := route.Route(l, route.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		opt := sta.Options{Constraints: d.Cons, Routes: routes}
		var ws sta.Workspace
		if _, err := ws.Analyze(l, opt, g); err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(5, func() {
			if _, err := ws.Analyze(l, opt, g); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Errorf("%s: %v allocations per recycled Analyze, want none", name, n)
		}
	}
}
