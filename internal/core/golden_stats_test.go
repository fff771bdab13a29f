package core

import "testing"

// statsDiff returns after − before, field by field.
func statsDiff(after, before DeltaStats) DeltaStats {
	return DeltaStats{
		OpRuns:       after.OpRuns - before.OpRuns,
		OpMemoHits:   after.OpMemoHits - before.OpMemoHits,
		OpArenaHits:  after.OpArenaHits - before.OpArenaHits,
		OpIterSteps:  after.OpIterSteps - before.OpIterSteps,
		RoutesWarm:   after.RoutesWarm - before.RoutesWarm,
		NetsRerouted: after.NetsRerouted - before.NetsRerouted,
	}
}

// TestScratchStatsGolden pins the exact per-evaluation DeltaStats of a
// fixed parameter sequence on a delta arena. Exploration logs and the
// benchmark's replay check sum these counts, so every reuse decision —
// operator run vs memo/prefix hit, LDA steps on a reused prefix — and the
// routed-net count must stay exactly as recorded; no route is
// warm-started and no evaluation reuses what its arena held before
// (OpArenaHits stays 0). Every step's metrics equal Run's on a fresh
// clone.
func TestScratchStatsGolden(t *testing.T) {
	l := buildDesign(t, 12, 8, 0.6, 5)
	base, err := EvalBaseline(l, flowConfig(0.6))
	if err != nil {
		t.Fatal(err)
	}
	k := base.Layout.Lib().NumLayers()
	at := func(op Operator, gridN, iters int, scale map[int]float64) Params {
		p := DefaultParams(k)
		p.Op, p.LDAGridN, p.LDAIters = op, gridN, iters
		for i, s := range scale {
			p.ScaleM[i] = s
		}
		return p
	}
	wide := map[int]float64{0: 1.2}
	steps := []struct {
		name string
		p    Params
		want DeltaStats
	}{
		{"CS identity", at(CS, 8, 1, nil),
			DeltaStats{OpRuns: 1, NetsRerouted: 121}},
		{"CS repeated, scale change", at(CS, 8, 1, wide),
			DeltaStats{OpMemoHits: 1, NetsRerouted: 121}},
		{"LDA 8:1 from the baseline", at(LDA, 8, 1, nil),
			DeltaStats{OpRuns: 1, NetsRerouted: 121}},
		{"CS memo replay", at(CS, 8, 1, nil),
			DeltaStats{OpMemoHits: 1, NetsRerouted: 121}},
		{"LDA 8:2 resumed from the 8:1 prefix", at(LDA, 8, 2, wide),
			DeltaStats{OpMemoHits: 1, OpIterSteps: 1, NetsRerouted: 121}},
		{"LDA 8:3 resumed from the 8:2 prefix", at(LDA, 8, 3, wide),
			DeltaStats{OpMemoHits: 1, OpIterSteps: 1, NetsRerouted: 121}},
		{"LDA 8:3 repeated, scale change", at(LDA, 8, 3, map[int]float64{1: 1.5}),
			DeltaStats{OpMemoHits: 1, NetsRerouted: 121}},
		{"LDA 8:3 repeated, identity scale", at(LDA, 8, 3, nil),
			DeltaStats{OpMemoHits: 1, NetsRerouted: 121}},
		{"LDA 8:2 memo replay", at(LDA, 8, 2, nil),
			DeltaStats{OpMemoHits: 1, NetsRerouted: 121}},
	}

	delta := NewScratch(base)
	for _, st := range steps {
		before := delta.Stats()
		got, err := delta.Run(st.p)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if d := statsDiff(delta.Stats(), before); d != st.want {
			t.Errorf("%s: stats diff\n got  %#v\n want %#v", st.name, d, st.want)
		}
		want, err := Run(base, st.p)
		if err != nil {
			t.Fatalf("%s: Run: %v", st.name, err)
		}
		sameMetrics(t, st.name, got.Metrics, want.Metrics)
	}
}
