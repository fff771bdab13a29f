package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"gdsiiguard/internal/fault"
)

// mutateOneGene flips exactly one gene of p, mirroring the exploration
// loop's mutation operator: the child differs from its parent in the
// operator choice, the LDA grid or depth, or one NDR scale entry.
func mutateOneGene(p Params, rng *rand.Rand) Params {
	c := p.Clone()
	switch rng.Intn(4) {
	case 0:
		if c.Op == CS {
			c.Op = LDA
		} else {
			c.Op = CS
		}
	case 1:
		c.Op = LDA
		c.LDAGridN = LDAGridValues[rng.Intn(len(LDAGridValues))]
	case 2:
		c.Op = LDA
		c.LDAIters = LDAIterValues[rng.Intn(len(LDAIterValues))]
	case 3:
		c.ScaleM[rng.Intn(len(c.ScaleM))] = ScaleValues[rng.Intn(len(ScaleValues))]
	}
	return c
}

// TestDeltaChainMatchesScratch is the delta path's equivalence gate: a
// chain of single-gene parent→child mutations evaluated incrementally on
// a delta arena (operator memo, geometry reuse) must be bit-identical,
// link by link, to Run's evaluation of the same chromosomes on a fresh
// clone — and the chain must actually exercise operator reuse.
func TestDeltaChainMatchesScratch(t *testing.T) {
	l := buildDesign(t, 6, 5, 0.5, 3)
	base, err := EvalBaseline(l, flowConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	k := base.Layout.Lib().NumLayers()

	rng := rand.New(rand.NewSource(7))
	delta := NewScratch(base)

	p := DefaultParams(k)
	for link := 0; link < 24; link++ {
		got, err := delta.Run(p)
		if err != nil {
			t.Fatalf("link %d (%s): delta: %v", link, p.Key(), err)
		}
		want, err := Run(base, p)
		if err != nil {
			t.Fatalf("link %d (%s): Run: %v", link, p.Key(), err)
		}
		sameMetrics(t, p.Key(), got.Metrics, want.Metrics)
		if got.CSResult != want.CSResult {
			t.Errorf("%s: CSResult %+v != %+v", p.Key(), got.CSResult, want.CSResult)
		}
		if got.LDAResult != want.LDAResult {
			t.Errorf("%s: LDAResult %+v != %+v", p.Key(), got.LDAResult, want.LDAResult)
		}
		p = mutateOneGene(p, rng)
	}

	st := delta.Stats()
	t.Logf("delta stats: %+v", st)
	if st.OpMemoHits+st.OpIterSteps == 0 {
		t.Error("chain exercised no operator reuse at all")
	}
	if err := base.Layout.Validate(); err != nil {
		t.Fatalf("baseline corrupted: %v", err)
	}
}

// TestDeltaRecoversAfterFailures injects a mid-operator panic and a route
// error into a delta arena, and checks that the journal rollback restores
// a state from which subsequent evaluations are still bit-identical to
// Run's on a fresh clone — including re-evaluating the very chromosome
// that failed.
func TestDeltaRecoversAfterFailures(t *testing.T) {
	l := buildDesign(t, 6, 5, 0.5, 3)
	base, err := EvalBaseline(l, flowConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	k := base.Layout.Lib().NumLayers()
	delta := NewScratch(base)

	lda := DefaultParams(k)
	lda.Op = LDA
	lda.LDAGridN, lda.LDAIters = LDAGridValues[1], 2
	deeper := lda.Clone()
	deeper.LDAIters = 3

	// Memoize lda's chain, so deeper resumes from its prefix.
	if _, err := delta.Run(lda); err != nil {
		t.Fatal(err)
	}

	// Resuming the chain dies mid-iteration inside ECO placement.
	fault.Arm(map[fault.Point]fault.Rule{fault.PlaceECO: {Every: 1, Limit: 1, Panic: true}})
	if _, err := delta.Run(deeper); err == nil {
		fault.Disarm()
		t.Fatal("expected injected operator failure")
	}
	fault.Disarm()

	// The route stage dies while the arena holds a post-operator state.
	fault.Arm(map[fault.Point]fault.Rule{fault.Route: {Every: 1, Limit: 1}})
	if _, err := delta.Run(lda); err == nil {
		fault.Disarm()
		t.Fatal("expected injected route failure")
	}
	fault.Disarm()

	for _, p := range []Params{deeper, lda, DefaultParams(k)} {
		got, err := delta.Run(p)
		if err != nil {
			t.Fatalf("delta after failures (%s): %v", p.Key(), err)
		}
		want, err := Run(base, p)
		if err != nil {
			t.Fatalf("Run (%s): %v", p.Key(), err)
		}
		sameMetrics(t, "post-failure "+p.Key(), got.Metrics, want.Metrics)
		if got.LDAResult != want.LDAResult {
			t.Errorf("%s: LDAResult %+v != %+v", p.Key(), got.LDAResult, want.LDAResult)
		}
	}
}

// TestDeltaMemoSharedAcrossArenas runs concurrent arenas over one baseline
// — the exploration loop's worker shape — and checks every result against
// Run's evaluation on a fresh clone. Run under -race this also exercises the
// memo's singleflight protocol.
func TestDeltaMemoSharedAcrossArenas(t *testing.T) {
	l := buildDesign(t, 6, 5, 0.5, 3)
	base, err := EvalBaseline(l, flowConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	k := base.Layout.Lib().NumLayers()

	rng := rand.New(rand.NewSource(21))
	var params []Params
	for i := 0; i < 12; i++ {
		params = append(params, RandomParams(k, rng))
	}

	const workers = 4
	results := make([][]Metrics, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewScratch(base)
			for _, p := range params {
				res, err := s.Run(p)
				if err != nil {
					t.Errorf("worker %d (%s): %v", w, p.Key(), err)
					return
				}
				results[w] = append(results[w], res.Metrics)
			}
		}()
	}
	wg.Wait()

	for i, p := range params {
		want, err := Run(base, p)
		if err != nil {
			t.Fatalf("Run (%s): %v", p.Key(), err)
		}
		for w := 0; w < workers; w++ {
			if len(results[w]) <= i {
				continue // that worker already reported a failure
			}
			sameMetrics(t, p.Key(), results[w][i], want.Metrics)
		}
	}
}

// waitSignalCtx closes waiting the first time the flow asks for its Done
// channel. The flow observes ctx only through Err until an arena blocks on
// a shared operator computation, so waiting closing means the arena holds
// the owner's memo entry and is about to wait on it.
type waitSignalCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *waitSignalCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestDeltaWaiterComputesAfterOwnerFails plays the owner of an operator
// computation by hand and abandons it while an arena waits on it. The
// waiter must compute the operator itself and match Run on a fresh clone.
func TestDeltaWaiterComputesAfterOwnerFails(t *testing.T) {
	l := buildDesign(t, 6, 5, 0.5, 3)
	base, err := EvalBaseline(l, flowConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(base.Layout.Lib().NumLayers())
	p.Op = LDA
	p.LDAGridN, p.LDAIters = LDAGridValues[1], 2

	memo := base.Memo()
	entry, claimed := memo.claimOp(p.OpKey())
	if !claimed {
		t.Fatal("a fresh memo already held the key")
	}
	s := NewScratch(base)
	ctx := &waitSignalCtx{Context: context.Background(), waiting: make(chan struct{})}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := s.RunCtx(ctx, p)
		done <- outcome{res, err}
	}()
	<-ctx.waiting
	memo.failOp(p.OpKey(), entry)
	got := <-done
	if got.err != nil {
		t.Fatalf("waiter of a failed owner: %v", got.err)
	}

	want, err := Run(base, p)
	if err != nil {
		t.Fatal(err)
	}
	sameMetrics(t, p.Key(), got.res.Metrics, want.Metrics)
	if got.res.LDAResult != want.LDAResult {
		t.Errorf("LDAResult %+v != %+v", got.res.LDAResult, want.LDAResult)
	}
	if st := s.Stats(); st.OpRuns != 1 || st.OpMemoHits != 0 {
		t.Errorf("waiter stats %+v, want one operator run and no memo hit", st)
	}
	if memo.readyOp(p.OpKey()) == nil {
		t.Error("the waiter did not publish what it computed")
	}
}
