package gdsiiguard

import (
	"reflect"
	"testing"

	"gdsiiguard/internal/core"
	"gdsiiguard/internal/nsga2"
)

// TestBenchmarkFrontUnchangedByDelta is the golden-front gate on real seed
// designs: every configuration an exploration of a built-in benchmark
// evaluates on its memo-backed arenas must carry exactly the metrics
// core.Run computes for it on a fresh clone, the exploration must actually
// reuse work, and its whole trajectory — front, evaluations, final
// population, cache hits — must be the same with 4 evaluations in flight
// as with 1. This is the end-to-end complement to the synthetic-design
// equivalence tests in internal/core and internal/nsga2.
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
			explore := func(parallelism int) (*nsga2.RunLog, exploreFingerprint) {
				t.Helper()
				var last *nsga2.Checkpoint
				opt := nsga2.Options{PopSize: 8, Generations: 3, Seed: 1, Parallelism: parallelism,
					Checkpoint: func(cp *nsga2.Checkpoint) error { last = cp; return nil }}
				log, err := nsga2.Optimize(d.base, opt)
				if err != nil {
					t.Fatalf("Optimize (Parallelism %d): %v", parallelism, err)
				}
				return log, fingerprintOf(log, last.Population)
			}
			par, parFP := explore(4)
			if _, seqFP := explore(1); !reflect.DeepEqual(parFP, seqFP) {
				t.Errorf("Parallelism 4 run diverged from Parallelism 1 run\n got: %+v\nwant: %+v", parFP, seqFP)
			}

			for _, in := range par.Evaluations {
				want, err := core.Run(d.base, in.Params)
				if err != nil {
					t.Fatalf("core.Run (%s): %v", in.Params.Key(), err)
				}
				got, w := in.Metrics, want.Metrics
				got.Runtime, w.Runtime = 0, 0
				if got != w {
					t.Errorf("%s: metrics %+v != core.Run's %+v", in.Params.Key(), got, w)
				}
			}
			st := par.Delta
			t.Logf("%s delta stats: %+v", name, st)
			if st.OpMemoHits+st.OpIterSteps == 0 {
				t.Error("exploration exercised no operator reuse")
			}
		})
	}
}

// exploreFingerprint is the deterministic content of an exploration.
type exploreFingerprint struct {
	Front, Evaluations, Final []explorePoint
	CacheHits                 int
}

// explorePoint is one individual without its wall time.
type explorePoint struct {
	Key        string
	Metrics    core.Metrics
	Feasible   bool
	Violation  float64
	Generation int
}

func fingerprintOf(log *nsga2.RunLog, final []nsga2.Individual) exploreFingerprint {
	points := func(ins []nsga2.Individual) []explorePoint {
		out := make([]explorePoint, len(ins))
		for i, in := range ins {
			m := in.Metrics
			m.Runtime = 0
			out[i] = explorePoint{in.Params.Key(), m, in.Feasible, in.Violation, in.Generation}
		}
		return out
	}
	return exploreFingerprint{
		Front:       points(log.Front),
		Evaluations: points(log.Evaluations),
		Final:       points(final),
		CacheHits:   log.CacheHits,
	}
}

// TestShortExploreWorkGolden pins the work a short exploration does on two
// real benchmark designs: how many configurations it evaluates, how large
// its front is, and what cross-chromosome delta evaluation reused. The
// counts are deterministic at Parallelism 1 and do not depend on the
// machine's CPU count (with more evaluations in flight, which of two
// concurrent evaluations runs a shared LDA prefix depends on scheduling,
// so the run/hit split would not be). A change that makes the exploration
// evaluate more, route more nets or reuse less fails here.
func TestShortExploreWorkGolden(t *testing.T) {
	golden := []struct {
		design      string
		evaluations int
		front       int
		delta       DeltaStats
	}{
		{"PRESENT", 14, 1, DeltaStats{OpRuns: 3, OpMemoHits: 11, NetsRerouted: 7728}},
		{"openMSP430_1", 15, 1, DeltaStats{OpRuns: 3, OpMemoHits: 12, NetsRerouted: 12555}},
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
