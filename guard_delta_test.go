package gdsiiguard

import (
	"testing"

	"gdsiiguard/internal/nsga2"
)

// TestBenchmarkFrontUnchangedByDelta is the golden-front gate on real seed
// designs: exploring a built-in benchmark with cross-chromosome delta
// evaluation (the default) must produce exactly the Pareto front that
// from-scratch evaluation produces — same chromosomes, same metrics — while
// actually reusing work. This is the end-to-end complement to the
// synthetic-design equivalence tests in internal/core and internal/nsga2.
func TestBenchmarkFrontUnchangedByDelta(t *testing.T) {
	designs := []string{"PRESENT"}
	if !testing.Short() {
		designs = append(designs, "openMSP430_1")
	}
	for _, name := range designs {
		name := name
		t.Run(name, func(t *testing.T) {
			d, err := LoadBenchmark(name)
			if err != nil {
				t.Fatal(err)
			}
			opt := nsga2.Options{PopSize: 8, Generations: 3, Seed: 1}
			plainOpt := opt
			plainOpt.DisableDelta = true

			delta, err := nsga2.Optimize(d.base, opt)
			if err != nil {
				t.Fatalf("delta Optimize: %v", err)
			}
			plain, err := nsga2.Optimize(d.base, plainOpt)
			if err != nil {
				t.Fatalf("plain Optimize: %v", err)
			}

			if len(delta.Evaluations) != len(plain.Evaluations) {
				t.Fatalf("evaluation counts differ: %d != %d", len(delta.Evaluations), len(plain.Evaluations))
			}
			if len(delta.Front) != len(plain.Front) {
				t.Fatalf("front sizes differ: %d != %d", len(delta.Front), len(plain.Front))
			}
			for i := range plain.Front {
				g, w := delta.Front[i], plain.Front[i]
				if g.Params.Key() != w.Params.Key() {
					t.Errorf("front[%d]: params %s != %s", i, g.Params.Key(), w.Params.Key())
				}
				gm, wm := g.Metrics, w.Metrics
				gm.Runtime, wm.Runtime = 0, 0
				if gm != wm {
					t.Errorf("front[%d] (%s): metrics %+v != %+v", i, g.Params.Key(), gm, wm)
				}
			}
			st := delta.Delta
			t.Logf("%s delta stats: %+v", name, st)
			if st.OpMemoHits+st.OpArenaHits+st.OpIterSteps == 0 {
				t.Error("exploration exercised no operator reuse")
			}
		})
	}
}

// TestShortExploreWorkGolden pins the work a short exploration does on two
// real benchmark designs: how many configurations it evaluates, how large
// its front is, and what cross-chromosome delta evaluation reused. The
// counts are deterministic at Parallelism 1 and do not depend on the
// machine's CPU count (with more evaluations in flight, which arena holds
// an operator placement depends on scheduling, so the memo/arena split
// would not be). A change that makes the exploration evaluate more, route
// more nets or reuse less fails here.
func TestShortExploreWorkGolden(t *testing.T) {
	golden := []struct {
		design      string
		evaluations int
		front       int
		delta       DeltaStats
	}{
		{"PRESENT", 14, 1, DeltaStats{OpRuns: 3, OpMemoHits: 2, OpArenaHits: 9, NetsRerouted: 7728}},
		{"openMSP430_1", 15, 1, DeltaStats{OpRuns: 3, OpMemoHits: 2, OpArenaHits: 10, NetsRerouted: 12555}},
	}
	for _, g := range golden {
		t.Run(g.design, func(t *testing.T) {
			d, err := LoadBenchmark(g.design)
			if err != nil {
				t.Fatal(err)
			}
			ex, err := d.Explore(ExploreOptions{PopSize: 6, Generations: 2, Seed: 1, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			if ex.Evaluations != g.evaluations {
				t.Errorf("evaluations = %d, want %d", ex.Evaluations, g.evaluations)
			}
			if len(ex.Front) != g.front {
				t.Errorf("front size = %d, want %d", len(ex.Front), g.front)
			}
			if ex.Delta != g.delta {
				t.Errorf("delta stats = %+v, want %+v", ex.Delta, g.delta)
			}
		})
	}
}
