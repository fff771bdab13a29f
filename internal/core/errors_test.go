package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"gdsiiguard/internal/fault"
)

func armFaults(t *testing.T, rules map[fault.Point]fault.Rule) {
	t.Helper()
	fault.Arm(rules)
	t.Cleanup(fault.Disarm)
}

func testBaseline(t *testing.T) *Baseline {
	t.Helper()
	l := buildDesign(t, 3, 10, 0.55, 41)
	base, err := EvalBaseline(l, flowConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// entryPoint is one way to evaluate a chromosome. prepare returns the
// evaluator to call under an armed fault plan; the same evaluator is
// called again after the plan is disarmed, so arena entry points must
// heal themselves from the failed evaluation.
type entryPoint struct {
	name    string
	prepare func(t *testing.T, base *Baseline, p Params) func(Params) (*Result, error)
}

// entryPoints covers the two ways a chromosome reaches the pipeline: a
// fresh clone, and an arena on its second evaluation, when the operator
// placement is replayed from the memo and the route stage reads the
// memoized geometry.
var entryPoints = []entryPoint{
	{"Run", func(t *testing.T, base *Baseline, p Params) func(Params) (*Result, error) {
		return func(p Params) (*Result, error) { return Run(base, p) }
	}},
	{"NewScratch second evaluation", func(t *testing.T, base *Baseline, p Params) func(Params) (*Result, error) {
		s := NewScratch(base)
		if _, err := s.Run(p); err != nil {
			t.Fatal(err)
		}
		if e := base.Memo().readyOp(p.OpKey()); e == nil {
			t.Fatal("first delta evaluation memoized no operator placement")
		}
		if base.Memo().geos[p.OpKey()] == nil {
			t.Fatal("first delta evaluation memoized no route geometry")
		}
		return s.Run
	}},
}

// checkHealed re-runs p on an evaluator that just failed and compares the
// result with a fresh from-clone evaluation.
func checkHealed(t *testing.T, base *Baseline, p Params, eval func(Params) (*Result, error)) {
	t.Helper()
	fault.Disarm()
	got, err := eval(p)
	if err != nil {
		t.Fatalf("evaluation after the fault: %v", err)
	}
	want, err := Run(base, p)
	if err != nil {
		t.Fatal(err)
	}
	sameMetrics(t, "after fault", got.Metrics, want.Metrics)
}

func TestRunTagsInjectedStageErrors(t *testing.T) {
	base := testBaseline(t)
	p := DefaultParams(base.Layout.Lib().NumLayers())
	faults := []struct {
		point fault.Point
		stage Stage
	}{
		{fault.Route, StageRoute},
		{fault.STA, StageTiming},
	}
	for _, ep := range entryPoints {
		for _, f := range faults {
			t.Run(ep.name+"/"+string(f.point), func(t *testing.T) {
				eval := ep.prepare(t, base, p)
				armFaults(t, map[fault.Point]fault.Rule{f.point: {Every: 1}})
				_, err := eval(p)
				if err == nil {
					t.Fatalf("evaluation succeeded under an always-failing %s", f.point)
				}
				var fe *FlowError
				if !errors.As(err, &fe) {
					t.Fatalf("error %T is not a *FlowError: %v", err, err)
				}
				if fe.Stage != f.stage || fe.Class != ClassPermanent {
					t.Errorf("tag = %s/%s, want %s/%s", fe.Stage, fe.Class, f.stage, ClassPermanent)
				}
				if StageOf(err) != f.stage || Classify(err) != ClassPermanent {
					t.Errorf("StageOf/Classify = %s/%s", StageOf(err), Classify(err))
				}
				checkHealed(t, base, p, eval)
			})
		}
	}
}

func TestRunContainsInjectedPanicWithStack(t *testing.T) {
	base := testBaseline(t)
	p := DefaultParams(base.Layout.Lib().NumLayers())
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			eval := ep.prepare(t, base, p)
			armFaults(t, map[fault.Point]fault.Rule{fault.STA: {Every: 1, Panic: true}})
			_, err := eval(p)
			if err == nil {
				t.Fatal("evaluation succeeded under a panicking STA engine")
			}
			var pe *FlowPanicError
			if !errors.As(err, &pe) {
				t.Fatalf("error %T is not a *FlowPanicError: %v", err, err)
			}
			if pe.Stage != StageTiming {
				t.Errorf("panic stage = %s, want %s", pe.Stage, StageTiming)
			}
			if len(pe.Stack) == 0 {
				t.Error("panic error carries no captured stack")
			}
			if Classify(err) != ClassPanic {
				t.Errorf("Classify = %s, want %s", Classify(err), ClassPanic)
			}
			// The injected error panic value must stay reachable for errors.As.
			var ie *fault.Error
			if !errors.As(err, &ie) {
				t.Error("panic value not reachable through the error chain")
			}
			checkHealed(t, base, p, eval)
		})
	}
}

func TestEvalBaselineContainsPanics(t *testing.T) {
	l := buildDesign(t, 3, 10, 0.55, 41)
	armFaults(t, map[fault.Point]fault.Rule{fault.Route: {Every: 1, Panic: true}})

	_, err := EvalBaseline(l, flowConfig(2))
	var pe *FlowPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("EvalBaseline error %T is not a *FlowPanicError: %v", err, err)
	}
	if pe.Stage != StageRoute {
		t.Errorf("stage = %s, want %s", pe.Stage, StageRoute)
	}
}

func TestClassifyTaxonomy(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want ErrClass
	}{
		{"nil", nil, ""},
		{"plain", errors.New("boom"), ClassPermanent},
		{"canceled", context.Canceled, ClassCanceled},
		{"wrapped deadline", fmt.Errorf("job: %w", context.DeadlineExceeded), ClassCanceled},
		{"flow error keeps class", &FlowError{Stage: StageRoute, Class: ClassPanic, Err: errors.New("x")}, ClassPanic},
		{"panic", &FlowPanicError{Stage: StageTiming, Value: "v"}, ClassPanic},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("%s: Classify = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestValidateErrorIsStageTagged(t *testing.T) {
	base := testBaseline(t)
	bad := DefaultParams(base.Layout.Lib().NumLayers())
	bad.ScaleM[0] = 2.0
	_, err := Run(base, bad)
	if StageOf(err) != StageValidate || Classify(err) != ClassPermanent {
		t.Errorf("validate error tagged %s/%s, want %s/%s",
			StageOf(err), Classify(err), StageValidate, ClassPermanent)
	}
}
