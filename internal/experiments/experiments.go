// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV) on the benchmark suite:
//
//   - Fig. 4:  normalized free sites / free tracks per design for ICAS,
//     BISA, Ba et al. and GDSII-Guard, plus the suite averages behind the
//     98.8% headline;
//   - Fig. 5:  the explored search space and Pareto fronts of the
//     multi-objective optimizer on AES_1, AES_3, MISTY and openMSP430_2;
//   - Table I: the flow parameter space and its size;
//   - Table II: TNS, power and #DRC for the original design and every
//     defense;
//   - §IV-D:   the runtime comparison on AES_2 (measured wall time here,
//     reported next to the paper's hours).
//
// Everything is deterministic for a given seed except the runtime
// comparison, which measures real wall time by design.
package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"gdsiiguard/internal/baselines"
	"gdsiiguard/internal/benchdesigns"
	"gdsiiguard/internal/core"
	"gdsiiguard/internal/nsga2"
)

// Defense row labels, in presentation order.
const (
	RowOriginal = "Original Design"
	RowICAS     = "ICAS"
	RowBISA     = "BISA"
	RowBa       = "Ba et al."
	RowGuard    = "GDSII-Guard"
)

// RowOrder is the Table II row order.
var RowOrder = []string{RowOriginal, RowICAS, RowBISA, RowBa, RowGuard}

// Options configures a suite run.
type Options struct {
	// Designs to evaluate (default: the full 12-design suite).
	Designs []string
	// GAPop/GAGens size the NSGA-II exploration per design
	// (defaults 12/6; Quick uses 8/4).
	GAPop, GAGens int
	// Quick shrinks the GA for fast smoke runs.
	Quick bool
	// Parallelism bounds concurrent designs and GA evaluations.
	Parallelism int
	// Seed drives everything.
	Seed int64
}

func (o Options) withDefaults() Options {
	if len(o.Designs) == 0 {
		o.Designs = benchdesigns.Names()
	}
	if o.GAPop == 0 {
		o.GAPop = 12
	}
	if o.GAGens == 0 {
		o.GAGens = 6
	}
	if o.Quick {
		o.GAPop, o.GAGens = 8, 4
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
	return o
}

// DesignResult holds everything measured for one design.
type DesignResult struct {
	Name     string
	Baseline *core.Baseline
	// Metrics per defense row (RowOriginal..RowGuard).
	Metrics map[string]core.Metrics
	// GALog is the optimizer trace (Fig. 5 source).
	GALog *nsga2.RunLog
	// Selected is the Pareto solution chosen for the comparison (knee
	// point of the front).
	Selected *nsga2.Individual
}

// NormSites and NormTracks return the Fig. 4 normalized security metrics of
// a defense row (free sites / tracks over baseline).
func (d *DesignResult) NormSites(row string) float64 {
	m, ok := d.Metrics[row]
	if !ok || d.Baseline.Metrics.ERSites == 0 {
		return math.NaN()
	}
	return float64(m.ERSites) / float64(d.Baseline.Metrics.ERSites)
}

// NormTracks returns the normalized free routing tracks of a defense row.
func (d *DesignResult) NormTracks(row string) float64 {
	m, ok := d.Metrics[row]
	if !ok || d.Baseline.Metrics.ERTracks == 0 {
		return math.NaN()
	}
	return m.ERTracks / d.Baseline.Metrics.ERTracks
}

// Suite is the result of evaluating all defenses over all designs.
type Suite struct {
	Options Options
	Results []*DesignResult
}

// Run executes the full comparison.
func Run(opt Options) (*Suite, error) {
	opt = opt.withDefaults()
	suite := &Suite{Options: opt}
	results := make([]*DesignResult, len(opt.Designs))
	errs := make([]error, len(opt.Designs))

	// One evaluation budget for the whole suite: the per-design serial
	// phases and every design's GA workers all draw from it, so total
	// evaluation concurrency is Parallelism — not the ≈ Parallelism²/2 the
	// suite used to reach by handing each of Parallelism/2 concurrent
	// designs its own GA worker pool of Parallelism.
	budget := nsga2.NewEvalBudget(opt.Parallelism)
	sem := make(chan struct{}, maxInt(1, opt.Parallelism/2))
	var wg sync.WaitGroup
	for i, name := range opt.Designs {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = evalDesign(name, opt, budget)
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	suite.Results = results
	return suite, nil
}

// evalDesign runs the baseline, the three prior defenses and the
// GDSII-Guard optimizer on one design. Every evaluation — the serial
// phases here and the GA workers inside the optimizer — holds a slot of
// the shared budget, so concurrently evaluated designs cannot oversubscribe
// the suite's Parallelism.
func evalDesign(name string, opt Options, budget *nsga2.EvalBudget) (*DesignResult, error) {
	ctx := context.Background()
	withSlot := func(f func() error) error {
		if err := budget.Acquire(ctx); err != nil {
			return err
		}
		defer budget.Release()
		return f()
	}

	d, err := benchdesigns.Build(name)
	if err != nil {
		return nil, err
	}
	var base *core.Baseline
	if err := withSlot(func() (err error) {
		base, err = core.EvalBaseline(d.Layout, core.FlowConfig{
			Constraints: d.Cons,
			Activity:    d.Spec.Activity,
			Seed:        opt.Seed,
		})
		return err
	}); err != nil {
		return nil, fmt.Errorf("experiments: %s baseline: %w", name, err)
	}
	res := &DesignResult{
		Name:     name,
		Baseline: base,
		Metrics:  map[string]core.Metrics{RowOriginal: base.Metrics},
	}

	if err := withSlot(func() error {
		icas, err := baselines.RunICAS(base, opt.Seed)
		if err == nil {
			res.Metrics[RowICAS] = icas.Metrics
		}
		return err
	}); err != nil {
		return nil, fmt.Errorf("experiments: %s ICAS: %w", name, err)
	}
	if err := withSlot(func() error {
		bisa, err := baselines.RunBISA(base)
		if err == nil {
			res.Metrics[RowBISA] = bisa.Metrics
		}
		return err
	}); err != nil {
		return nil, fmt.Errorf("experiments: %s BISA: %w", name, err)
	}
	if err := withSlot(func() error {
		ba, err := baselines.RunBa(base)
		if err == nil {
			res.Metrics[RowBa] = ba.Metrics
		}
		return err
	}); err != nil {
		return nil, fmt.Errorf("experiments: %s Ba: %w", name, err)
	}

	log, err := nsga2.Optimize(base, nsga2.Options{
		PopSize:     opt.GAPop,
		Generations: opt.GAGens,
		Seed:        opt.Seed,
		Parallelism: opt.Parallelism,
		Budget:      budget,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s GA: %w", name, err)
	}
	res.GALog = log
	sel := SelectKnee(log.Front)
	if sel == nil {
		// No feasible front point: fall back to the identity flow.
		var r *core.Result
		if err := withSlot(func() (err error) {
			r, err = core.Run(base, core.DefaultParams(d.Layout.Lib().NumLayers()))
			return err
		}); err != nil {
			return nil, err
		}
		res.Metrics[RowGuard] = r.Metrics
	} else {
		res.Selected = sel
		res.Metrics[RowGuard] = sel.Metrics
	}
	return res, nil
}

// SelectKnee picks the knee point of a Pareto front: the solution closest
// (after per-objective normalization) to the utopia point. The paper
// selects one Pareto solution per design for the Table II comparison.
func SelectKnee(front []nsga2.Individual) *nsga2.Individual {
	if len(front) == 0 {
		return nil
	}
	if len(front) == 1 {
		return &front[0]
	}
	minS, maxS := math.Inf(1), math.Inf(-1)
	minT, maxT := math.Inf(1), math.Inf(-1)
	for _, in := range front {
		o := in.Objectives()
		minS, maxS = math.Min(minS, o[0]), math.Max(maxS, o[0])
		minT, maxT = math.Min(minT, o[1]), math.Max(maxT, o[1])
	}
	best, bestD := 0, math.Inf(1)
	for i, in := range front {
		o := in.Objectives()
		ds, dt := 0.0, 0.0
		if maxS > minS {
			ds = (o[0] - minS) / (maxS - minS)
		}
		if maxT > minT {
			dt = (o[1] - minT) / (maxT - minT)
		}
		// Security is the primary objective (the paper's headline):
		// weight it more heavily in the knee selection.
		d := 2*ds*ds + dt*dt
		if d < bestD {
			best, bestD = i, d
		}
	}
	return &front[best]
}

// Averages returns the suite-average normalized free sites and tracks per
// defense row — the numbers behind "lowers the risk of Trojan insertion by
// 98.8% on average".
func (s *Suite) Averages() map[string][2]float64 {
	out := map[string][2]float64{}
	for _, row := range []string{RowICAS, RowBISA, RowBa, RowGuard} {
		var sumS, sumT float64
		var n int
		for _, d := range s.Results {
			ns, nt := d.NormSites(row), d.NormTracks(row)
			if math.IsNaN(ns) || math.IsNaN(nt) {
				continue
			}
			sumS += ns
			sumT += nt
			n++
		}
		if n > 0 {
			out[row] = [2]float64{sumS / float64(n), sumT / float64(n)}
		}
	}
	return out
}

// RuntimeComparison measures the wall time of each defense on one design
// (the paper uses AES_2, its largest). Paper hours: ICAS 9.4, BISA 6.5,
// Ba 7.0, GDSII-Guard 4.8.
type RuntimeComparison struct {
	Design   string
	Measured map[string]time.Duration
	// PaperHours are the published wall times for reference.
	PaperHours map[string]float64
}

// RunRuntimeComparison measures defense runtimes on the named design.
func RunRuntimeComparison(name string, opt Options) (*RuntimeComparison, error) {
	opt = opt.withDefaults()
	d, err := benchdesigns.Build(name)
	if err != nil {
		return nil, err
	}
	base, err := core.EvalBaseline(d.Layout, core.FlowConfig{
		Constraints: d.Cons, Activity: d.Spec.Activity, Seed: opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	out := &RuntimeComparison{
		Design:   name,
		Measured: map[string]time.Duration{},
		PaperHours: map[string]float64{
			RowICAS: 9.4, RowBISA: 6.5, RowBa: 7.0, RowGuard: 4.8,
		},
	}
	t0 := time.Now()
	if _, err := baselines.RunICAS(base, opt.Seed); err != nil {
		return nil, err
	}
	out.Measured[RowICAS] = time.Since(t0)

	t0 = time.Now()
	if _, err := baselines.RunBISA(base); err != nil {
		return nil, err
	}
	out.Measured[RowBISA] = time.Since(t0)

	t0 = time.Now()
	if _, err := baselines.RunBa(base); err != nil {
		return nil, err
	}
	out.Measured[RowBa] = time.Since(t0)

	t0 = time.Now()
	if _, err := nsga2.Optimize(base, nsga2.Options{
		PopSize:     opt.GAPop,
		Generations: opt.GAGens,
		Seed:        opt.Seed,
		Parallelism: opt.Parallelism,
	}); err != nil {
		return nil, err
	}
	out.Measured[RowGuard] = time.Since(t0)
	return out, nil
}

// Fig5Designs are the four designs whose Pareto fronts the paper plots.
var Fig5Designs = []string{"AES_1", "AES_3", "MISTY", "openMSP430_2"}

// ParetoData is the Fig. 5 content for one design.
type ParetoData struct {
	Design string
	// All evaluated points and the non-dominated front, as
	// (security, −TNS ps) pairs.
	Points [][2]float64
	Front  [][2]float64
}

// RunPareto explores the parameter space of one design and returns the
// scatter and front of Fig. 5.
func RunPareto(name string, opt Options) (*ParetoData, error) {
	opt = opt.withDefaults()
	d, err := benchdesigns.Build(name)
	if err != nil {
		return nil, err
	}
	base, err := core.EvalBaseline(d.Layout, core.FlowConfig{
		Constraints: d.Cons, Activity: d.Spec.Activity, Seed: opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	log, err := nsga2.Optimize(base, nsga2.Options{
		PopSize:     opt.GAPop,
		Generations: opt.GAGens,
		Seed:        opt.Seed,
		Parallelism: opt.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	pd := &ParetoData{Design: name}
	for _, in := range log.Evaluations {
		o := in.Objectives()
		pd.Points = append(pd.Points, [2]float64{o[0], o[1]})
	}
	for _, in := range log.Front {
		o := in.Objectives()
		pd.Front = append(pd.Front, [2]float64{o[0], o[1]})
	}
	sort.Slice(pd.Front, func(i, j int) bool { return pd.Front[i][0] < pd.Front[j][0] })
	return pd, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
