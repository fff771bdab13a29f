package nsga2

import (
	"reflect"
	"testing"

	"gdsiiguard/internal/core"
)

// TestDeltaMatchesPlainRun is the optimizer-level golden gate for delta
// evaluation: every evaluation a full NSGA-II run logs on its memo-backed
// arenas must carry exactly the metrics core.Run computes for the same
// chromosome on a fresh clone, the run must actually reuse work across
// chromosomes, and its entire trajectory — front, evaluation trace, final
// population, cache hits — must not depend on how many evaluations were
// in flight.
func TestDeltaMatchesPlainRun(t *testing.T) {
	base := buildBase(t, 5, 20, 5)
	opt := Options{PopSize: 10, Generations: 5, Seed: 11, Parallelism: 4}

	var parCps, seqCps []*Checkpoint
	par, err := Optimize(base, withCapture(opt, &parCps))
	if err != nil {
		t.Fatalf("Optimize (Parallelism 4): %v", err)
	}
	seqOpt := withCapture(opt, &seqCps)
	seqOpt.Parallelism = 1
	seq, err := Optimize(base, seqOpt)
	if err != nil {
		t.Fatalf("Optimize (Parallelism 1): %v", err)
	}
	if got, want := fingerprint(par, finalPop(nil, parCps)), fingerprint(seq, finalPop(nil, seqCps)); !reflect.DeepEqual(got, want) {
		t.Errorf("Parallelism 4 run diverged from Parallelism 1 run\n got: %+v\nwant: %+v", got, want)
	}

	for _, in := range par.Evaluations {
		want, err := core.Run(base, in.Params)
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
	t.Logf("delta stats: %+v", st)
	if st.OpRuns == 0 {
		t.Error("delta run never ran an operator (arenas not engaged?)")
	}
	if st.OpMemoHits+st.OpIterSteps == 0 {
		t.Error("delta run exercised no operator reuse")
	}
	if st.OpArenaHits != 0 {
		t.Errorf("OpArenaHits = %d, want 0", st.OpArenaHits)
	}
}
