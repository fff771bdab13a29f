package nsga2

import (
	"strings"
	"testing"

	"gdsiiguard/internal/core"
	"gdsiiguard/internal/fault"
)

// armFaults installs a fault plan for the test and guarantees it is
// removed afterwards. Fault plans are process-global, so these tests must
// not use t.Parallel.
func armFaults(t *testing.T, rules map[fault.Point]fault.Rule) {
	t.Helper()
	fault.Arm(rules)
	t.Cleanup(fault.Disarm)
}

// TestDegradesUnderInjectedRouteFailures is the end-to-end degradation
// scenario: with permanent errors injected into ~10% of routing calls, the
// exploration must complete every generation, record the failures in
// RunLog.Failures, and still produce a non-empty Pareto front.
func TestDegradesUnderInjectedRouteFailures(t *testing.T) {
	base := buildBase(t, 5, 20, 5)
	armFaults(t, map[fault.Point]fault.Rule{fault.Route: {Every: 10}})

	log, err := Optimize(base, smallOpts(1))
	if err != nil {
		t.Fatalf("Optimize under 10%% injected failures: %v", err)
	}
	if log.Generations != 4 {
		t.Errorf("Generations = %d, want all 4", log.Generations)
	}
	if len(log.Failures) == 0 {
		t.Fatal("no failures recorded despite injection")
	}
	if len(log.Front) == 0 {
		t.Fatal("empty Pareto front")
	}
	for _, f := range log.Failures {
		if f.Stage != core.StageRoute {
			t.Errorf("failure stage = %q, want %q", f.Stage, core.StageRoute)
		}
		if f.Class != core.ClassPermanent {
			t.Errorf("failure class = %q, want %q", f.Class, core.ClassPermanent)
		}
		if f.Key == "" || f.Err == "" {
			t.Errorf("failure record incomplete: %+v", f)
		}
	}
	// Degraded evaluations must not leak into the evaluation trace or the
	// front.
	for _, in := range log.Evaluations {
		if in.Failed {
			t.Error("failed individual recorded in Evaluations")
		}
	}
}

// TestPermanentFailureRecordedOnce: a failed evaluation runs once and
// leaves exactly one RunLog.Failures entry; the failing chromosome is
// neither re-run within its generation nor recorded twice.
func TestPermanentFailureRecordedOnce(t *testing.T) {
	base := buildBase(t, 5, 20, 5)
	armFaults(t, map[fault.Point]fault.Rule{fault.Route: {Every: 7}})

	log, err := Optimize(base, smallOpts(3))
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if len(log.Failures) == 0 {
		t.Fatal("no failures recorded despite injection")
	}
	if fired := fault.Fired(fault.Route); uint64(len(log.Failures)) != fired {
		t.Errorf("%d failures recorded for %d injected route failures", len(log.Failures), fired)
	}
	type evaluation struct {
		key string
		gen int
	}
	seen := map[evaluation]bool{}
	for _, f := range log.Failures {
		e := evaluation{f.Key, f.Generation}
		if seen[e] {
			t.Errorf("chromosome %s failed twice in generation %d", f.Key, f.Generation)
		}
		seen[e] = true
	}
}

// TestFailureRateCapAborts: when every evaluation fails, the run must stop
// with a failure-rate error instead of grinding through all generations.
func TestFailureRateCapAborts(t *testing.T) {
	base := buildBase(t, 5, 20, 5)
	armFaults(t, map[fault.Point]fault.Rule{fault.Route: {Every: 1}})

	_, err := Optimize(base, smallOpts(1))
	if err == nil {
		t.Fatal("Optimize succeeded with 100% evaluation failures")
	}
	if !strings.Contains(err.Error(), "rate") {
		t.Errorf("abort error does not mention the failure rate: %v", err)
	}
}

// TestPanicInOperatorDegrades: a panic inside the LDA operator's ECO
// placement must be contained as a classified failure at the operator
// stage, not crash the optimizer process.
func TestPanicInOperatorDegrades(t *testing.T) {
	base := buildBase(t, 5, 20, 5)
	armFaults(t, map[fault.Point]fault.Rule{
		fault.PlaceECO: {Every: 4, Panic: true},
	})

	log, err := Optimize(base, smallOpts(2))
	if err != nil {
		t.Fatalf("Optimize under injected operator panics: %v", err)
	}
	if fault.Fired(fault.PlaceECO) == 0 {
		t.Fatal("no operator panic was injected")
	}
	if len(log.Failures) == 0 {
		t.Fatal("injected operator panics recorded no failure")
	}
	for _, f := range log.Failures {
		if f.Class != core.ClassPanic || f.Stage != core.StageOperator {
			t.Errorf("failure %s/%s, want %s/%s: %s", f.Stage, f.Class, core.StageOperator, core.ClassPanic, f.Err)
		}
	}
	if len(log.Front) == 0 {
		t.Error("empty Pareto front")
	}
}
