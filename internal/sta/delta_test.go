package sta

import (
	"math"
	"math/rand"
	"testing"

	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/route"
	"gdsiiguard/internal/tech"
)

// withSTAWorkers forces the level-parallel worker count for the duration of
// the test and restores auto-selection afterwards.
func withSTAWorkers(t testing.TB, n int) {
	t.Helper()
	SetWorkers(n)
	t.Cleanup(func() { SetWorkers(0) })
}

func TestGraphLevelsRespectDependencies(t *testing.T) {
	l := placedPipe(t, 15, 3)
	nl := l.Netlist
	g, err := BuildGraph(nl)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumLevels() == 0 {
		t.Fatal("no combinational levels")
	}
	// Every combinational instance must sit strictly above the levels of
	// the combinational drivers feeding its non-clock inputs.
	for _, in := range nl.Insts {
		lv := g.instLevel[in.ID]
		if in.Master.Class != tech.Comb || !in.Master.IsFunctional() {
			if lv != -1 {
				t.Errorf("%s: non-comb instance has level %d", in.Name, lv)
			}
			continue
		}
		for _, c := range in.Conns {
			p := in.Master.Pin(c.Pin)
			if p == nil || p.Dir != tech.Input || p.IsClock || c.Net == nil || !c.Net.HasDriver() {
				continue
			}
			d := c.Net.Driver
			if d.IsPort() || d.Inst.Master.Class == tech.Seq || !d.Inst.Master.IsFunctional() {
				continue
			}
			if dl := g.instLevel[d.Inst.ID]; dl >= lv {
				t.Errorf("%s (level %d) reads from %s (level %d)", in.Name, lv, d.Inst.Name, dl)
			}
		}
	}
	// Net depth = driver's level + 1 for comb-driven nets, 0 otherwise.
	for _, n := range nl.Nets {
		want := int32(0)
		if n.HasDriver() && !n.Driver.IsPort() &&
			n.Driver.Inst.Master.Class == tech.Comb && n.Driver.Inst.Master.IsFunctional() {
			want = g.instLevel[n.Driver.Inst.ID] + 1
		}
		if g.netDepth[n.ID] != want {
			t.Errorf("net %s depth %d, want %d", n.Name, g.netDepth[n.ID], want)
		}
	}
}

// TestLevelParallelMatchesSequential forces level-parallel propagation and
// checks it against the sequential engine bit for bit — arrivals, slacks and
// endpoint totals. Worker counts vary the chunk boundaries within levels.
func TestLevelParallelMatchesSequential(t *testing.T) {
	t.Cleanup(func() { SetWorkers(0) })
	l := placedPipe(t, 60, 4) // enough nets to clear the parallel threshold
	routes, err := route.Route(l, route.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Constraints: cons(0.4), Routes: routes}

	SetWorkers(1)
	want, err := Analyze(l, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		SetWorkers(w)
		got, err := Analyze(l, opt)
		if err != nil {
			t.Fatal(err)
		}
		sameAnalysis(t, l, got, want)
	}
}

func sameAnalysis(t *testing.T, l *layout.Layout, got, want *Result) {
	t.Helper()
	if got.TNS != want.TNS || got.WNS != want.WNS {
		t.Errorf("TNS/WNS %g/%g != %g/%g", got.TNS, got.WNS, want.TNS, want.WNS)
	}
	if got.Endpoints != want.Endpoints || got.Violating != want.Violating {
		t.Errorf("endpoints %d/%d != %d/%d", got.Endpoints, got.Violating, want.Endpoints, want.Violating)
	}
	for _, n := range l.Netlist.Nets {
		if ga, wa := got.NetArrival(n), want.NetArrival(n); ga != wa {
			t.Fatalf("net %s arrival %g != %g", n.Name, ga, wa)
		}
	}
	for _, in := range l.Netlist.Insts {
		gs, ws := got.InstSlack(in), want.InstSlack(in)
		if gs != ws && !(math.IsInf(gs, 1) && math.IsInf(ws, 1)) {
			t.Fatalf("inst %s slack %g != %g", in.Name, gs, ws)
		}
	}
}

// placedLocalPipe places the pipe serpentine in netlist order with free
// sites interleaved — the locality-preserving placement shape of the warm
// route fixture, so ECO-style moves stay local and cone pruning has
// something to prune.
func placedLocalPipe(t testing.TB, stages, segs, numRows, sitesPerRow int) *layout.Layout {
	t.Helper()
	nl := pipeNetlist(t, stages, segs)
	l, err := layout.New(nl, numRows, sitesPerRow)
	if err != nil {
		t.Fatal(err)
	}
	row, site, dir := 0, 0, 1
	for _, in := range nl.Insts {
		w := in.Master.WidthSites
		if (dir > 0 && site+w > sitesPerRow) || (dir < 0 && site-w < 0) {
			row, dir = row+1, -dir
			if row >= numRows {
				t.Fatal("pipe does not fit the die")
			}
			if dir > 0 {
				site = 0
			} else {
				site = sitesPerRow
			}
		}
		at := site
		if dir < 0 {
			at = site - w
		}
		if err := l.Place(in, row, at); err != nil {
			t.Fatal(err)
		}
		site += dir * (w + 2)
	}
	return l
}

// perturbLocal relocates up to n movable instances to nearby free sites.
func perturbLocal(t *testing.T, l *layout.Layout, n int, rng *rand.Rand) {
	t.Helper()
	moved := 0
	var cands []*netlist.Instance
	for _, in := range l.Netlist.Insts {
		if !in.Fixed && l.PlacementOf(in).Placed {
			cands = append(cands, in)
		}
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	for _, in := range cands {
		if moved >= n {
			break
		}
		w := in.Master.WidthSites
		from := l.PlacementOf(in)
		row, site := -1, -1
		for dr := -2; dr <= 2 && site < 0; dr++ {
			r := from.Row + dr
			if r < 0 || r >= l.NumRows {
				continue
			}
			for _, run := range l.FreeRuns(r) {
				if run.Len >= w && (r != from.Row || run.Start != from.Site) {
					row, site = r, run.Start
					break
				}
			}
		}
		if site < 0 {
			continue
		}
		l.Unplace(in)
		if err := l.Place(in, row, site); err != nil {
			t.Fatalf("re-place %s: %v", in.Name, err)
		}
		moved++
	}
	if moved == 0 {
		t.Fatal("perturb moved nothing")
	}
}

// changedMask computes the exact set of nets whose electrical
// characterization can differ between the donor analysis and a fresh one:
// routed segments changed, congestion along the (unchanged) route changed,
// or — for unrouted nets, characterized from HPWL — the half-perimeter
// changed. Everything else characterizes bit-identically, which is the
// contract AnalyzeDelta's pruning rests on.
func changedMask(l *layout.Layout, oldRoutes, newRoutes *route.Result, oldHPWL []int64) []bool {
	changed := make([]bool, len(l.Netlist.Nets))
	for _, n := range l.Netlist.Nets {
		o, nw := oldRoutes.NetRoutes[n.ID], newRoutes.NetRoutes[n.ID]
		switch {
		case o == nil && nw == nil:
			changed[n.ID] = l.NetHPWL(n) != oldHPWL[n.ID]
		case o == nil || nw == nil:
			changed[n.ID] = true
		case len(o.Segments) != len(nw.Segments):
			changed[n.ID] = true
		default:
			for i := range o.Segments {
				if o.Segments[i] != nw.Segments[i] {
					changed[n.ID] = true
					break
				}
			}
			if !changed[n.ID] &&
				oldRoutes.NetCongestion(n.ID) != newRoutes.NetCongestion(n.ID) {
				changed[n.ID] = true
			}
		}
	}
	return changed
}

// TestDeltaMatchesFullChain is the delta-STA equivalence gate on the
// locality fixture: across a chain of local placement perturbations, the
// cone-propagated analysis seeded from the previous full result must match
// a full analysis of the same state bit for bit — while actually pruning
// (cones strictly smaller than the graph).
func TestDeltaMatchesFullChain(t *testing.T) {
	l := placedLocalPipe(t, 40, 6, 40, 160)
	opt := Options{Constraints: cons(0.5)}
	rng := rand.New(rand.NewSource(11))

	routes, err := route.Route(l, route.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt.Routes = routes
	donor, err := Analyze(l, opt)
	if err != nil {
		t.Fatal(err)
	}

	totalConeInsts, funcInsts := 0, len(l.Netlist.FunctionalInsts())
	for step := 0; step < 4; step++ {
		oldHPWL := make([]int64, len(l.Netlist.Nets))
		for _, n := range l.Netlist.Nets {
			oldHPWL[n.ID] = l.NetHPWL(n)
		}
		oldRoutes := opt.Routes
		perturbLocal(t, l, 3+step, rng)
		newRoutes, err := route.Route(l, route.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		opt.Routes = newRoutes
		changed := changedMask(l, oldRoutes, newRoutes, oldHPWL)

		full, err := AnalyzeWithGraph(l, opt, donor.Graph())
		if err != nil {
			t.Fatal(err)
		}
		delta, ds, err := AnalyzeDelta(l, opt, donor, changed)
		if err != nil {
			t.Fatal(err)
		}
		if delta == nil {
			t.Fatalf("step %d: delta analysis declined; donor should be compatible", step)
		}
		sameAnalysis(t, l, delta, full)
		if ds.ChangedNets == 0 {
			t.Errorf("step %d: no nets changed (stats %+v)", step, ds)
		}
		t.Logf("step %d: changed=%d coneInsts=%d/%d coneNets=%d",
			step, ds.ChangedNets, ds.ConeInsts, funcInsts, ds.ConeNets)
		totalConeInsts += ds.ConeInsts
		donor = delta // chain: the delta result donates to the next step
	}
	// Locality must pay off across the chain: the summed forward cones stay
	// well under re-evaluating every functional instance every step.
	if totalConeInsts >= 4*funcInsts {
		t.Errorf("cone propagation never pruned: %d instances re-evaluated over 4 steps of %d",
			totalConeInsts, funcInsts)
	}
}

// TestDeltaAllChangedMatchesFull marks every net changed: the delta engine
// then re-characterizes and re-propagates everything, which must reproduce
// the full analysis exactly (the degenerate upper bound of the cone).
func TestDeltaAllChangedMatchesFull(t *testing.T) {
	l := placedPipe(t, 20, 3)
	routes, err := route.Route(l, route.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Constraints: cons(0.5), Routes: routes}
	donor, err := Analyze(l, opt)
	if err != nil {
		t.Fatal(err)
	}
	changed := make([]bool, len(l.Netlist.Nets))
	for i := range changed {
		changed[i] = true
	}
	delta, _, err := AnalyzeDelta(l, opt, donor, changed)
	if err != nil {
		t.Fatal(err)
	}
	if delta == nil {
		t.Fatal("all-changed delta declined")
	}
	sameAnalysis(t, l, delta, donor)
}

// TestDeltaUnroutedMatchesFull analyzes an unrouted layout with every net
// marked changed: delta and full analysis must estimate each net's wire on
// the same layer, so the delta result equals the full one bit for bit.
func TestDeltaUnroutedMatchesFull(t *testing.T) {
	l := placedPipe(t, 60, 4)
	opt := Options{Constraints: cons(0.4)}
	full, err := Analyze(l, opt)
	if err != nil {
		t.Fatal(err)
	}
	changed := make([]bool, len(l.Netlist.Nets))
	for i := range changed {
		changed[i] = true
	}
	delta, _, err := AnalyzeDelta(l, opt, full, changed)
	if err != nil {
		t.Fatal(err)
	}
	if delta == nil {
		t.Fatal("unrouted delta declined")
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(delta.TNS, full.TNS) || !same(delta.WNS, full.WNS) {
		t.Fatalf("delta TNS/WNS %.2f/%.2f ps, full %.2f/%.2f ps", delta.TNS, delta.WNS, full.TNS, full.WNS)
	}
	for id := range full.netWire {
		if !same(delta.netWire[id], full.netWire[id]) || !same(delta.netCap[id], full.netCap[id]) {
			t.Fatalf("net %d wire/cap %v/%v, full %v/%v", id,
				delta.netWire[id], delta.netCap[id], full.netWire[id], full.netCap[id])
		}
	}
	sameAnalysis(t, l, delta, full)
}

// TestDeltaDeclines checks the compatibility gates: an unusable donor makes
// AnalyzeDelta return nil (fall back to full analysis) instead of producing
// wrong numbers.
func TestDeltaDeclines(t *testing.T) {
	l := placedPipe(t, 10, 2)
	opt := Options{Constraints: cons(1)}
	donor, err := Analyze(l, opt)
	if err != nil {
		t.Fatal(err)
	}
	changed := make([]bool, len(l.Netlist.Nets))

	if res, _, err := AnalyzeDelta(l, opt, nil, changed); err != nil || res != nil {
		t.Errorf("nil donor: got (%v, %v), want decline", res, err)
	}
	if res, _, err := AnalyzeDelta(l, Options{Constraints: cons(2)}, donor, changed); err != nil || res != nil {
		t.Errorf("period mismatch: got (%v, %v), want decline", res, err)
	}
	if res, _, err := AnalyzeDelta(l, opt, donor, changed[:1]); err != nil || res != nil {
		t.Errorf("mask size mismatch: got (%v, %v), want decline", res, err)
	}

	// A compatible donor with an all-clean mask reproduces itself.
	res, ds, err := AnalyzeDelta(l, opt, donor, changed)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("identity delta declined")
	}
	if ds.ConeInsts != 0 || ds.ChangedNets != 0 {
		t.Errorf("identity delta propagated a cone: %+v", ds)
	}
	sameAnalysis(t, l, res, donor)
}
