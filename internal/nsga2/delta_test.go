package nsga2

import (
	"reflect"
	"testing"

	"gdsiiguard/internal/core"
)

// TestDeltaMatchesPlainRun is the optimizer-level golden gate for delta
// evaluation: a full NSGA-II run with lineage-aware delta arenas (the
// default) must reproduce the from-scratch run's entire trajectory —
// front, evaluation trace, final population, cache hits — bit for bit,
// while actually reusing work across chromosomes.
func TestDeltaMatchesPlainRun(t *testing.T) {
	base := buildBase(t, 5, 20, 5)
	opt := Options{PopSize: 10, Generations: 5, Patience: 0, Seed: 11, Parallelism: 4}

	var plainCps, deltaCps []*Checkpoint
	plainOpt := withCapture(opt, &plainCps)
	plainOpt.DisableDelta = true
	plain, err := Optimize(base, plainOpt)
	if err != nil {
		t.Fatalf("plain Optimize: %v", err)
	}
	delta, err := Optimize(base, withCapture(opt, &deltaCps))
	if err != nil {
		t.Fatalf("delta Optimize: %v", err)
	}

	if got, want := fingerprint(delta, finalPop(nil, deltaCps)), fingerprint(plain, finalPop(nil, plainCps)); !reflect.DeepEqual(got, want) {
		t.Errorf("delta run diverged from from-scratch run\n got: %+v\nwant: %+v", got, want)
	}

	st := delta.Delta
	t.Logf("delta stats: %+v", st)
	if st.OpRuns == 0 {
		t.Error("delta run never ran an operator (arenas not engaged?)")
	}
	if st.OpMemoHits+st.OpArenaHits+st.OpIterSteps == 0 {
		t.Error("delta run exercised no operator reuse")
	}
	if z := plain.Delta; z != (core.DeltaStats{}) {
		t.Errorf("DisableDelta run reported delta activity: %+v", z)
	}
}
