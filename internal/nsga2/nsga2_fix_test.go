package nsga2

import (
	"context"
	"testing"

	"gdsiiguard/internal/core"
	"gdsiiguard/internal/fault"
)

// distinctParams returns a valid chromosome whose key differs per grid
// value (LDA keys include the grid; CS keys do not).
func distinctParams(grid int) core.Params {
	p := core.DefaultParams(3)
	p.Op = core.LDA
	p.LDAGridN = grid
	return p
}

// Regression: convergence used to compare rank-0 front *size* only, so an
// exploration whose front stayed saturated at a constant size while its
// membership kept improving was declared converged and stopped early. The
// tracker must key on membership.
func TestFrontTrackerTracksMembershipNotSize(t *testing.T) {
	mk := func(grid, rank int) *Individual {
		return &Individual{Params: distinctParams(grid), rank: rank}
	}
	tr := &frontTracker{}

	// First observation establishes the reference front.
	if got := tr.observe([]*Individual{mk(2, 0), mk(4, 0), mk(8, 1)}); got != 0 {
		t.Errorf("first observation stale = %d, want 0", got)
	}
	// Identical membership: stale counts up.
	if got := tr.observe([]*Individual{mk(2, 0), mk(4, 0), mk(16, 1)}); got != 1 {
		t.Errorf("unchanged front stale = %d, want 1", got)
	}
	if got := tr.observe([]*Individual{mk(4, 0), mk(2, 0)}); got != 2 {
		t.Errorf("unchanged front (reordered) stale = %d, want 2", got)
	}
	// Same SIZE, different membership: progress, stale must reset. This is
	// exactly the case the size-based check misclassified as converged.
	if got := tr.observe([]*Individual{mk(2, 0), mk(16, 0)}); got != 0 {
		t.Errorf("constant-size membership change stale = %d, want 0 (size-only tracking bug)", got)
	}
	if got := tr.observe([]*Individual{mk(2, 0), mk(16, 0)}); got != 1 {
		t.Errorf("stale after reset = %d, want 1", got)
	}
}

// A chromosome whose evaluation failed is evaluated once: in its own
// generation and in every later one it is served its cached failure, which
// never counts as a cache hit. Every failure is deterministic for the
// chromosome, so a second evaluation could only fail again; the fault
// stays armed throughout, and a re-evaluation would be seen in its call
// counter.
func TestFailedEvaluationServedFromCache(t *testing.T) {
	base := buildBase(t, 3, 8, 3)
	opt := smallOpts(1).withDefaults()
	ev := &evaluator{base: base, opt: opt, budget: NewEvalBudget(2), cache: map[string]*Individual{}, log: &RunLog{}}
	p := core.DefaultParams(base.Layout.Lib().NumLayers())

	armFaults(t, map[fault.Point]fault.Rule{fault.Route: {Every: 1}})
	for gen := 0; gen < 3; gen++ {
		pop := []*Individual{{Params: p}, {Params: p}}
		if err := ev.evalAll(context.Background(), pop, gen); err != nil {
			t.Fatalf("evalAll gen %d: %v", gen, err)
		}
		for _, in := range pop {
			if !in.Failed || in.Generation != 0 {
				t.Fatalf("gen %d: individual Failed %v from generation %d, want the generation-0 failure", gen, in.Failed, in.Generation)
			}
		}
	}
	if n := fault.Calls(fault.Route); n != 1 {
		t.Errorf("route called %d times over three generations, want 1", n)
	}
	if len(ev.log.Failures) != 1 || len(ev.log.Evaluations) != 0 {
		t.Errorf("%d failures and %d evaluations logged, want 1 and 0", len(ev.log.Failures), len(ev.log.Evaluations))
	}
	if ev.log.CacheHits != 0 {
		t.Errorf("failed cache entry counted as cache hit: CacheHits = %d", ev.log.CacheHits)
	}
}

// Duplicate successful evaluations — within one batch and across
// generations — still count as cache hits (the memoizer's actual wins).
func TestDuplicateSuccessfulEvaluationsCountAsCacheHits(t *testing.T) {
	base := buildBase(t, 3, 8, 3)
	opt := smallOpts(1).withDefaults()
	ev := &evaluator{base: base, opt: opt, budget: NewEvalBudget(2), cache: map[string]*Individual{}, log: &RunLog{}}
	p := core.DefaultParams(base.Layout.Lib().NumLayers())

	pop := []*Individual{{Params: p}, {Params: p}}
	if err := ev.evalAll(context.Background(), pop, 0); err != nil {
		t.Fatalf("evalAll: %v", err)
	}
	if len(ev.log.Evaluations) != 1 {
		t.Errorf("Evaluations = %d, want 1 (batch-level dedup)", len(ev.log.Evaluations))
	}
	if ev.log.CacheHits != 1 {
		t.Errorf("CacheHits = %d for an in-batch duplicate, want 1", ev.log.CacheHits)
	}
	pop = []*Individual{{Params: p}}
	if err := ev.evalAll(context.Background(), pop, 1); err != nil {
		t.Fatalf("evalAll gen 1: %v", err)
	}
	if ev.log.CacheHits != 2 {
		t.Errorf("CacheHits = %d across generations, want 2", ev.log.CacheHits)
	}
}
