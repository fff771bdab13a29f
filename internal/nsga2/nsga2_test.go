package nsga2

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"gdsiiguard/internal/core"
	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/opencell45"
	"gdsiiguard/internal/place"
	"gdsiiguard/internal/sdc"
)

func buildBase(t testing.TB, chains, stages int, periodNS float64) *core.Baseline {
	t.Helper()
	lib := opencell45.MustLoad()
	nl := netlist.New("nsga", lib)
	clkPort, _ := nl.AddPort("clk", netlist.In)
	clkNet, _ := nl.AddNet("clk")
	clkNet.IsClock = true
	_ = nl.ConnectPort(clkPort, clkNet)
	for c := 0; c < chains; c++ {
		in, _ := nl.AddPort(fmt.Sprintf("i%d", c), netlist.In)
		prev, _ := nl.AddNet(fmt.Sprintf("pi%d", c))
		_ = nl.ConnectPort(in, prev)
		for s := 0; s < stages; s++ {
			g, err := nl.AddInstance(fmt.Sprintf("c%dg%d", c, s), "INV_X1")
			if err != nil {
				t.Fatal(err)
			}
			nx, _ := nl.AddNet(fmt.Sprintf("c%dn%d", c, s))
			_ = nl.Connect(g, "A", prev)
			_ = nl.Connect(g, "ZN", nx)
			prev = nx
		}
		ff, _ := nl.AddInstance(fmt.Sprintf("key%d", c), "DFF_X1")
		ff.SecurityCritical = true
		q, _ := nl.AddNet(fmt.Sprintf("q%d", c))
		_ = nl.Connect(ff, "D", prev)
		_ = nl.Connect(ff, "CK", clkNet)
		_ = nl.Connect(ff, "Q", q)
		out, _ := nl.AddPort(fmt.Sprintf("o%d", c), netlist.Out)
		_ = nl.ConnectPort(out, q)
	}
	l, err := place.Global(nl, place.GlobalOptions{TargetUtil: 0.55, RefinePasses: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cons, _ := sdc.ParseString(fmt.Sprintf("create_clock -name clk -period %g [get_ports clk]\n", periodNS))
	base, err := core.EvalBaseline(l, core.FlowConfig{Constraints: cons, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return base
}

func smallOpts(seed int64) Options {
	return Options{PopSize: 8, Generations: 4, Seed: seed, Parallelism: 4}
}

func TestOptimizeFindsImprovingFront(t *testing.T) {
	base := buildBase(t, 5, 20, 5)
	log, err := Optimize(base, smallOpts(1))
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if len(log.Evaluations) == 0 {
		t.Fatal("no evaluations")
	}
	if len(log.Front) == 0 {
		t.Fatal("empty Pareto front")
	}
	best := log.Front[0]
	if best.Metrics.Security >= 1.0 {
		t.Errorf("no security improvement on front: %g", best.Metrics.Security)
	}
	// Front sorted by security; TNS non-increasingly good along it.
	for i := 1; i < len(log.Front); i++ {
		if log.Front[i].Metrics.Security < log.Front[i-1].Metrics.Security {
			t.Error("front not sorted by security")
		}
	}
}

func TestFrontIsNonDominated(t *testing.T) {
	base := buildBase(t, 4, 15, 3)
	log, err := Optimize(base, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range log.Front {
		for j := range log.Front {
			if i == j {
				continue
			}
			a, b := log.Front[i], log.Front[j]
			if dominates(&a, &b) && (a.Metrics.Security != b.Metrics.Security || a.Metrics.TNS != b.Metrics.TNS) {
				t.Errorf("front point %d dominates front point %d", i, j)
			}
		}
	}
	for _, in := range log.Front {
		if !in.Feasible {
			t.Error("infeasible point on front")
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	base := buildBase(t, 4, 12, 3)
	l1, err := Optimize(base, smallOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	l2, err := Optimize(base, smallOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(l1.Front) != len(l2.Front) {
		t.Fatalf("front sizes differ: %d vs %d", len(l1.Front), len(l2.Front))
	}
	for i := range l1.Front {
		a, b := l1.Front[i].Metrics, l2.Front[i].Metrics
		if a.Security != b.Security || a.TNS != b.TNS {
			t.Errorf("front[%d] differs: %+v vs %+v", i, a, b)
		}
	}
	if len(l1.Evaluations) != len(l2.Evaluations) {
		t.Errorf("evaluation traces differ: %d vs %d", len(l1.Evaluations), len(l2.Evaluations))
	}
}

func TestCacheAvoidsReevaluation(t *testing.T) {
	base := buildBase(t, 3, 10, 3)
	log, err := Optimize(base, Options{PopSize: 8, Generations: 6, Seed: 3, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if log.CacheHits == 0 {
		t.Error("expected cache hits across generations")
	}
	// Evaluations are unique by definition of the cache.
	seen := map[string]bool{}
	for _, in := range log.Evaluations {
		key := in.Params.Key()
		if seen[key] {
			t.Fatalf("duplicate evaluation of %s", key)
		}
		seen[key] = true
	}
}

func TestConstraintDomination(t *testing.T) {
	feas := &Individual{Feasible: true, Metrics: core.Metrics{Security: 0.9, TNS: -10}}
	infeas := &Individual{Feasible: false, Violation: 0.5, Metrics: core.Metrics{Security: 0.1, TNS: 0}}
	if !dominates(feas, infeas) {
		t.Error("feasible should dominate infeasible regardless of objectives")
	}
	if dominates(infeas, feas) {
		t.Error("infeasible dominating feasible")
	}
	worse := &Individual{Feasible: false, Violation: 0.9}
	if !dominates(infeas, worse) {
		t.Error("lower violation should dominate")
	}
	a := &Individual{Feasible: true, Metrics: core.Metrics{Security: 0.5, TNS: -5}}
	b := &Individual{Feasible: true, Metrics: core.Metrics{Security: 0.6, TNS: -5}}
	if !dominates(a, b) || dominates(b, a) {
		t.Error("pareto dominance broken")
	}
	c := &Individual{Feasible: true, Metrics: core.Metrics{Security: 0.6, TNS: -1}}
	if dominates(a, c) || dominates(c, a) {
		t.Error("incomparable points should not dominate")
	}
}

func TestCrowdingDistance(t *testing.T) {
	mk := func(sec, tns float64) *Individual {
		return &Individual{Feasible: true, Metrics: core.Metrics{Security: sec, TNS: tns}}
	}
	front := []*Individual{mk(0.1, -10), mk(0.5, -5), mk(0.9, -1), mk(0.2, -9)}
	crowd(front)
	infs := 0
	for _, in := range front {
		if math.IsInf(in.crowding, 1) {
			infs++
		}
	}
	if infs < 2 {
		t.Errorf("boundary points not infinite: %d", infs)
	}
	// Small front: everything infinite.
	two := []*Individual{mk(0.1, -1), mk(0.2, -2)}
	crowd(two)
	for _, in := range two {
		if !math.IsInf(in.crowding, 1) {
			t.Error("2-point front should be all infinite")
		}
	}
}

func TestSortFronts(t *testing.T) {
	mk := func(sec, tns float64) *Individual {
		return &Individual{Feasible: true, Metrics: core.Metrics{Security: sec, TNS: tns}}
	}
	pop := []*Individual{
		mk(0.1, -1),  // front 0 (dominates everything)
		mk(0.2, -2),  // front 1
		mk(0.3, -3),  // front 2
		mk(0.15, -3), // front 1 (incomparable with 0.2/-2? 0.15<0.2 but -3<-2 → objectives (0.15,3) vs (0.2,2): incomparable → same front)
	}
	fronts := sortFronts(pop)
	if pop[0].rank != 0 {
		t.Errorf("best point rank = %d", pop[0].rank)
	}
	if len(fronts) < 2 {
		t.Errorf("fronts = %d", len(fronts))
	}
	// ranks consistent with fronts slices
	for r, front := range fronts {
		for _, in := range front {
			if in.rank != r {
				t.Errorf("rank %d in front %d", in.rank, r)
			}
		}
	}
}

func TestGenerationsAndPatience(t *testing.T) {
	base := buildBase(t, 3, 8, 3)
	log, err := Optimize(base, Options{PopSize: 8, Generations: 10, Patience: 2, Seed: 5, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if log.Generations > 10 || log.Generations < 1 {
		t.Errorf("generations = %d", log.Generations)
	}
}

func TestOptimizeCtxObservesCancellation(t *testing.T) {
	base := buildBase(t, 3, 8, 3)

	// Pre-cancelled: fails before any evaluation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := OptimizeCtx(ctx, base, smallOpts(7)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled OptimizeCtx = %v, want context.Canceled", err)
	}

	// Cancelled mid-run: workers stop within roughly one evaluation. The
	// run is sized (and early-stopping disabled via negative patience) so
	// it would take tens of seconds if ctx were ignored.
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := OptimizeCtx(ctx2, base, Options{PopSize: 16, Generations: 500, Patience: -1, Seed: 9, Parallelism: 1})
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel2()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("mid-run cancel = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("optimizer did not stop after cancellation")
	}
}

func TestMutationKeepsValidity(t *testing.T) {
	base := buildBase(t, 3, 8, 3)
	log, err := Optimize(base, smallOpts(11))
	if err != nil {
		t.Fatal(err)
	}
	k := base.Layout.Lib().NumLayers()
	for _, in := range log.Evaluations {
		if err := in.Params.Validate(k); err != nil {
			t.Fatalf("invalid chromosome evaluated: %v", err)
		}
	}
}
