package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gdsiiguard/internal/benchdesigns"
	"gdsiiguard/internal/route"
)

// sameMetrics compares every metric except the wall-clock Runtime.
func sameMetrics(t *testing.T, label string, got, want Metrics) {
	t.Helper()
	got.Runtime, want.Runtime = 0, 0
	if got != want {
		t.Errorf("%s: metrics diverge:\n got  %+v\n want %+v", label, got, want)
	}
}

// TestScratchMatchesRun is the scratch path's equivalence gate: for a mix
// of CS and LDA parameter vectors, evaluating on a reused Scratch must
// produce exactly the metrics of the clone-per-evaluation Run path, and
// re-evaluating the same vector on the (now dirty, then rewound) arena
// must reproduce the first answer bit for bit.
func TestScratchMatchesRun(t *testing.T) {
	l := buildDesign(t, 6, 5, 0.5, 3)
	base, err := EvalBaseline(l, flowConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	k := base.Layout.Lib().NumLayers()

	rng := rand.New(rand.NewSource(11))
	params := []Params{DefaultParams(k)}
	lda := DefaultParams(k)
	lda.Op = LDA
	lda.LDAGridN, lda.LDAIters = LDAGridValues[0], LDAIterValues[len(LDAIterValues)-1]
	params = append(params, lda)
	for i := 0; i < 3; i++ {
		params = append(params, RandomParams(k, rng))
	}

	s := NewScratch(base)
	var firstScratch []Metrics
	for i, p := range params {
		want, err := Run(base, p)
		if err != nil {
			t.Fatalf("Run(%d): %v", i, err)
		}
		got, err := s.Run(p)
		if err != nil {
			t.Fatalf("Scratch.Run(%d): %v", i, err)
		}
		sameMetrics(t, p.Key(), got.Metrics, want.Metrics)
		if got.CSResult != want.CSResult {
			t.Errorf("%s: CSResult %+v != %+v", p.Key(), got.CSResult, want.CSResult)
		}
		if got.LDAResult != want.LDAResult {
			t.Errorf("%s: LDAResult %+v != %+v", p.Key(), got.LDAResult, want.LDAResult)
		}
		if got.Layout != nil || got.Routes != nil || got.Timing != nil || got.Assessment != nil {
			t.Errorf("%s: scratch result leaked arena aliases", p.Key())
		}
		firstScratch = append(firstScratch, got.Metrics)
	}
	// Second sweep on the same arena: reset must fully rewind the state.
	for i, p := range params {
		got, err := s.Run(p)
		if err != nil {
			t.Fatalf("Scratch.Run replay(%d): %v", i, err)
		}
		sameMetrics(t, "replay "+p.Key(), got.Metrics, firstScratch[i])
	}
	// The baseline layout itself must be untouched by arena evaluations.
	if err := base.Layout.Validate(); err != nil {
		t.Fatalf("baseline corrupted: %v", err)
	}
	want, err := Run(base, params[0])
	if err != nil {
		t.Fatal(err)
	}
	sameMetrics(t, "baseline stability", want.Metrics, firstScratch[0])
}

// sameRoutes compares two routes bit for bit: summaries, capacity, usage
// and every net's segments and per-layer length.
func sameRoutes(t *testing.T, label string, got, want *route.Result) {
	t.Helper()
	if got.TotalWL != want.TotalWL || got.Victims != want.Victims || got.OverflowGCells != want.OverflowGCells ||
		math.Float64bits(got.Overflow) != math.Float64bits(want.Overflow) || got.Grid != want.Grid {
		t.Fatalf("%s: route summary WL %d victims %d overflow %v/%d, want WL %d victims %d overflow %v/%d", label,
			got.TotalWL, got.Victims, got.Overflow, got.OverflowGCells, want.TotalWL, want.Victims, want.Overflow, want.OverflowGCells)
	}
	for li := range want.Usage {
		for i := range want.Usage[li] {
			if math.Float64bits(got.Usage[li][i]) != math.Float64bits(want.Usage[li][i]) ||
				math.Float64bits(got.Cap[li][i]) != math.Float64bits(want.Cap[li][i]) {
				t.Fatalf("%s: layer %d GCell %d usage/cap %v/%v, want %v/%v", label, li+1, i,
					got.Usage[li][i], got.Cap[li][i], want.Usage[li][i], want.Cap[li][i])
			}
		}
	}
	if len(got.NetRoutes) != len(want.NetRoutes) {
		t.Fatalf("%s: %d net routes, want %d", label, len(got.NetRoutes), len(want.NetRoutes))
	}
	for id, w := range want.NetRoutes {
		g := got.NetRoutes[id]
		if (g == nil) != (w == nil) {
			t.Fatalf("%s: net %d routed-ness differs", label, id)
		}
		if w != nil && (!slices.Equal(g.Segments, w.Segments) || !slices.Equal(g.LenByMetal, w.LenByMetal)) {
			t.Fatalf("%s: net %d route differs", label, id)
		}
	}
}

// TestScratchRoutesAcrossOpKeysMatchRun alternates one arena between
// operator placements (OpKeys) and NDR scales on PRESENT, so every
// evaluation routes into a workspace that last held another placement and
// NDR, with and without rip-up victims. Each evaluation's route — read
// before the arena strips it — and metrics must equal core.Run's, which
// routes afresh on its own clone.
func TestScratchRoutesAcrossOpKeysMatchRun(t *testing.T) {
	d, err := benchdesigns.Build("PRESENT")
	if err != nil {
		t.Fatal(err)
	}
	base, err := EvalBaseline(d.Layout, FlowConfig{Constraints: d.Cons, Activity: d.Spec.Activity, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	k := base.Layout.Lib().NumLayers()
	cs, lda2, lda4 := DefaultParams(k), DefaultParams(k), DefaultParams(k)
	lda2.Op, lda2.LDAGridN, lda2.LDAIters = LDA, 2, 1
	lda4.Op, lda4.LDAGridN, lda4.LDAIters = LDA, 4, 2
	// scaled gives layer i the scale ScaleValues[(i+shift) mod 3], and
	// wide every layer 1.5.
	scaled := func(p Params, shift int) Params {
		p = p.Clone()
		for i := range p.ScaleM {
			p.ScaleM[i] = ScaleValues[(i+shift)%len(ScaleValues)]
		}
		return p
	}
	wide := func(p Params) Params {
		p = p.Clone()
		for i := range p.ScaleM {
			p.ScaleM[i] = 1.5
		}
		return p
	}
	params := []Params{cs, lda2, scaled(cs, 1), lda4, scaled(lda2, 2), wide(cs), wide(lda4), lda2}

	s := NewScratch(base)
	var first *route.Result
	victims := 0
	for i, p := range params {
		want, err := Run(base, p)
		if err != nil {
			t.Fatalf("Run(%d): %v", i, err)
		}
		got, err := run(context.Background(), base, s, p)
		if err != nil {
			t.Fatalf("arena run(%d): %v", i, err)
		}
		label := fmt.Sprintf("%d %s %s", i, p.OpKey(), p.ScaleKey())
		sameRoutes(t, label, got.Routes, want.Routes)
		sameMetrics(t, label, got.Metrics, want.Metrics)
		if first == nil {
			first = got.Routes
		} else if got.Routes != first {
			t.Fatalf("%s: the arena routed into new memory", label)
		}
		victims += want.Routes.Victims
	}
	t.Logf("%d evaluations, %d rip-up victims", len(params), victims)
}

// TestScratchAnalyzesInArenaMemory alternates one arena between Cell
// Shift and LDA placements and NDR scales on PRESENT. Each evaluation's
// timing and assessment — read before the arena strips them — must equal
// core.Run's, which analyzes afresh, and must live in the memory the
// arena's first evaluation used.
func TestScratchAnalyzesInArenaMemory(t *testing.T) {
	d, err := benchdesigns.Build("PRESENT")
	if err != nil {
		t.Fatal(err)
	}
	base, err := EvalBaseline(d.Layout, FlowConfig{Constraints: d.Cons, Activity: d.Spec.Activity, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	k := base.Layout.Lib().NumLayers()
	cs, lda := DefaultParams(k), DefaultParams(k)
	lda.Op, lda.LDAGridN, lda.LDAIters = LDA, 4, 2
	wide := cs.Clone()
	for i := range wide.ScaleM {
		wide.ScaleM[i] = 1.5
	}
	s := NewScratch(base)
	var first *Result
	for i, p := range []Params{cs, lda, wide, cs} {
		want, err := Run(base, p)
		if err != nil {
			t.Fatalf("Run(%d): %v", i, err)
		}
		got, err := run(context.Background(), base, s, p)
		if err != nil {
			t.Fatalf("arena run(%d): %v", i, err)
		}
		label := fmt.Sprintf("%d %s %s", i, p.OpKey(), p.ScaleKey())
		sameMetrics(t, label, got.Metrics, want.Metrics)
		for _, in := range got.Layout.Netlist.Insts {
			if g, w := got.Timing.InstSlack(in), want.Timing.InstSlack(in); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: %s slack %v, want %v", label, in.Name, g, w)
			}
		}
		ga, wa := got.Assessment, want.Assessment
		if ga.ExploitableSites != wa.ExploitableSites || ga.FreeSites != wa.FreeSites || ga.Assets != wa.Assets ||
			len(ga.Regions) != len(wa.Regions) {
			t.Fatalf("%s: assessment %+v, want %+v", label, *ga, *wa)
		}
		for r := range wa.Regions {
			if ga.Regions[r].Sites != wa.Regions[r].Sites || !slices.Equal(ga.Regions[r].Runs, wa.Regions[r].Runs) {
				t.Fatalf("%s: region %d differs", label, r)
			}
		}
		if first == nil {
			first = got
		} else if got.Timing != first.Timing || got.Assessment != first.Assessment {
			t.Fatalf("%s: the arena analyzed into new memory", label)
		}
	}
}
