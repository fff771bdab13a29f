// Package nsga2 implements the multi-objective flow-parameter optimizer of
// §III-D: NSGA-II (Deb et al.) adapted to the GDSII-Guard parameter space.
// Chromosomes are flow parameter vectors (Table I); the two objectives are
// the security score and −TNS, both minimized; the power and DRC bounds of
// §II-C enter through constraint domination (feasible solutions always beat
// infeasible ones, matching "valid solutions should first meet hard
// constraints"). Evaluations run on a bounded worker pool (the paper's
// process-level parallelism) and are memoized by chromosome identity.
package nsga2

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"gdsiiguard/internal/core"
	"gdsiiguard/internal/obs"
)

// Options configures the optimizer.
type Options struct {
	// PopSize is the population size (default 16).
	PopSize int
	// Generations is the maximum generation count (default 8).
	Generations int
	// Patience stops early after this many generations without a new
	// non-dominated point. Zero means "unset" and defaults to 3; a
	// negative value disables early stopping.
	Patience int
	// Parallelism bounds concurrent flow evaluations (default NumCPU).
	Parallelism int
	// Budget optionally shares one evaluation-concurrency budget across
	// several concurrent optimizers (see NewEvalBudget): every evaluation
	// acquires a budget slot, so total concurrency across all runs sharing
	// the budget never exceeds its size. When nil, the run gets a private
	// budget of Parallelism slots.
	Budget *EvalBudget
	// Seed drives all stochastic choices.
	Seed int64
	// Checkpoint, when set, is invoked synchronously after every completed
	// generation (including generation 0, the evaluated initial population)
	// with a self-contained snapshot of the optimizer state. An error
	// aborts the run — a caller that persists checkpoints must not keep
	// exploring past a failed write.
	Checkpoint func(*Checkpoint) error
	// Resume continues an interrupted run from a Checkpoint instead of
	// building an initial population. Seed and PopSize must match the
	// checkpoint's; the resumed run's trajectory is bit-identical to the
	// uninterrupted run's.
	Resume *Checkpoint
}

func (o Options) withDefaults() Options {
	if o.PopSize <= 0 {
		o.PopSize = 16
	}
	if o.PopSize%2 == 1 {
		o.PopSize++
	}
	if o.Generations <= 0 {
		o.Generations = 8
	}
	if o.Patience == 0 {
		o.Patience = 3
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
	return o
}

// Individual is one evaluated chromosome.
type Individual struct {
	Params   core.Params
	Metrics  core.Metrics
	Feasible bool
	// Violation is the aggregate constraint violation (0 when feasible).
	Violation float64
	// Generation the individual was first evaluated in.
	Generation int
	// Failed marks an individual whose evaluation failed: it carries no
	// metrics, is infeasible with maximal violation (so selection breeds
	// it out), and is excluded from RunLog.Evaluations.
	Failed bool

	rank     int
	crowding float64
}

// Objectives returns the two minimized objectives (security, −TNS).
func (in *Individual) Objectives() [2]float64 {
	return [2]float64{in.Metrics.Security, -in.Metrics.TNS}
}

// RunLog is the optimizer's full trace.
type RunLog struct {
	// Evaluations lists every distinct evaluated point in evaluation order
	// (the scatter of Fig. 5).
	Evaluations []Individual
	// Front is the final feasible Pareto front, sorted by security.
	Front []Individual
	// Generations actually executed.
	Generations int
	// CacheHits counts chromosome re-evaluations avoided.
	CacheHits int
	// Failures records evaluations that failed and degraded to infeasible
	// individuals instead of aborting the run, one entry per failed
	// evaluation.
	Failures []EvalFailure
	// Delta aggregates what delta evaluation reused across the run's
	// arenas — operator runs, memo hits, routed nets. OpArenaHits is
	// always 0: every evaluation takes its operator placement from the
	// baseline's stage memo.
	Delta core.DeltaStats
}

// EvalFailure is one degraded (failed) evaluation of the run.
type EvalFailure struct {
	// Key and Params identify the failed chromosome.
	Key    string
	Params core.Params
	// Generation the failure happened in.
	Generation int
	// Stage and Class locate and classify the failure (core taxonomy).
	Stage core.Stage
	Class core.ErrClass
	// Err is the failure message.
	Err string
}

// Optimize explores the flow parameter space for the given baseline design.
func Optimize(base *core.Baseline, opt Options) (*RunLog, error) {
	return OptimizeCtx(context.Background(), base, opt)
}

// OptimizeCtx is Optimize with cooperative cancellation: the optimizer
// observes ctx between generations and the evaluation workers observe it
// between (and inside, via the flow stages) evaluations, so a cancelled
// exploration stops within roughly one evaluation's latency. Evaluations
// run on journal-rewound scratch arenas (core.Scratch) — one per worker —
// instead of cloning the baseline layout per evaluation.
//
// Evaluation failures degrade instead of aborting: a failed evaluation is
// recorded in RunLog.Failures and enters selection as an infeasible individual with
// maximal violation, and the exploration continues. The run errors out
// only when ctx is cancelled or the failure rate crosses
// maxFailureRate (an unevaluable baseline surfaces earlier, from
// core.EvalBaseline, before an optimizer ever starts).
func OptimizeCtx(ctx context.Context, base *core.Baseline, opt Options) (*RunLog, error) {
	opt = opt.withDefaults()
	k := base.Layout.Lib().NumLayers()
	src := &countingSource{src: rand.NewSource(opt.Seed)}
	rng := rand.New(src)
	log := &RunLog{}
	budget := opt.Budget
	if budget == nil {
		budget = NewEvalBudget(opt.Parallelism)
	}
	ev := &evaluator{base: base, opt: opt, budget: budget, cache: map[string]*Individual{}, log: log}
	conv := &frontTracker{}

	var pop []*Individual
	startGen := 1
	resumedDone := false
	if cp := opt.Resume; cp != nil {
		// Resume: restore the interrupted run's state and fast-forward the
		// RNG to its recorded stream position — generation cp.Generation+1
		// then unfolds exactly as it would have, uninterrupted.
		if err := cp.validate(opt, k); err != nil {
			return nil, err
		}
		pop = cp.restore(ev, conv)
		src.skip(cp.RNGDraws)
		startGen = cp.Generation + 1
		// Reproduce the patience break: if the interrupted run had already
		// converged at its last checkpoint, the uninterrupted run stopped
		// there too.
		if opt.Patience > 0 && cp.Stale >= opt.Patience {
			resumedDone = true
			startGen = cp.Generation
		}
	} else {
		// Initial population: the identity configuration, then random
		// points.
		idty := core.DefaultParams(k)
		pop = append(pop, &Individual{Params: idty})
		seen := map[string]bool{idty.Key(): true}
		for len(pop) < opt.PopSize {
			p := core.RandomParams(k, rng)
			if seen[p.Key()] {
				continue
			}
			seen[p.Key()] = true
			pop = append(pop, &Individual{Params: p})
		}
		if err := ev.evalAll(ctx, pop, 0); err != nil {
			return nil, err
		}
		if opt.Checkpoint != nil {
			if err := opt.Checkpoint(makeCheckpoint(opt, 0, src.draws, pop, ev, conv)); err != nil {
				return nil, fmt.Errorf("nsga2: checkpoint after generation 0: %w", err)
			}
		}
	}

	gen := startGen
	for gen = startGen; !resumedDone && gen <= opt.Generations; gen++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rankAndCrowd(pop)
		offspring := makeOffspring(pop, k, rng, opt)
		if err := ev.evalAll(ctx, offspring, gen); err != nil {
			return nil, err
		}
		pop = environmentalSelect(append(pop, offspring...), opt.PopSize)

		frontSize := 0
		for _, in := range pop {
			if in.rank == 0 {
				frontSize++
			}
		}
		gensTotal.Inc()
		frontGauge.Set(float64(frontSize))
		obs.Logger().Debug("nsga2: generation complete",
			"generation", gen, "front_size", frontSize,
			"evaluations", len(log.Evaluations), "cache_hits", log.CacheHits,
			"failures", len(log.Failures))

		// Convergence: the rank-0 front stopped changing membership. Size
		// alone is not enough — a front saturated at PopSize whose points
		// keep improving is still making progress.
		stale := conv.observe(pop)
		if opt.Checkpoint != nil {
			if err := opt.Checkpoint(makeCheckpoint(opt, gen, src.draws, pop, ev, conv)); err != nil {
				return nil, fmt.Errorf("nsga2: checkpoint after generation %d: %w", gen, err)
			}
		}
		if opt.Patience > 0 && stale >= opt.Patience {
			break
		}
	}
	if gen > opt.Generations {
		gen = opt.Generations
	}
	log.Generations = gen
	log.Front = paretoFront(log.Evaluations)
	// All arenas are back on the free list here (every checkout is paired
	// with a deferred return), so this sums the whole run's reuse.
	for _, s := range ev.scratches {
		log.Delta.Add(s.Stats())
	}
	return log, nil
}

// frontTracker detects a stalled exploration by rank-0 front membership
// (chromosome keys), not front size: a front that saturates at PopSize
// while its points keep being replaced by better ones is still making
// progress and must not count as stale.
type frontTracker struct {
	keys  map[string]bool
	stale int
}

// observe updates the tracker with the population's current rank-0 front
// and returns how many consecutive generations the front has been
// unchanged.
func (t *frontTracker) observe(pop []*Individual) int {
	cur := make(map[string]bool)
	for _, in := range pop {
		if in.rank == 0 {
			cur[in.Params.Key()] = true
		}
	}
	same := len(cur) == len(t.keys)
	if same {
		for k := range cur {
			if !t.keys[k] {
				same = false
				break
			}
		}
	}
	if same {
		t.stale++
	} else {
		t.stale = 0
		t.keys = cur
	}
	return t.stale
}

// evaluator memoizes flow runs and executes them in parallel.
type evaluator struct {
	base   *core.Baseline
	opt    Options
	budget *EvalBudget
	cache  map[string]*Individual
	mu     sync.Mutex
	log    *RunLog
	// succeeded/failed count fresh evaluations for the failure-rate cap.
	succeeded int
	failed    int
	// scratches is a free list of evaluation arenas, one checked out per
	// in-flight evaluation. The exploration keeps only Metrics, so arenas
	// (journal-rewound between uses) replace the per-evaluation layout
	// clone of core.RunCtx. Grows to at most Parallelism entries and
	// persists across generations.
	scratchMu sync.Mutex
	scratches []*core.Scratch
}

// getScratch checks an arena out of the free list, building a new one on
// first use per concurrent worker. Every arena rewinds to the baseline
// before each evaluation, so any arena evaluates any chromosome.
func (ev *evaluator) getScratch() *core.Scratch {
	ev.scratchMu.Lock()
	defer ev.scratchMu.Unlock()
	if n := len(ev.scratches); n > 0 {
		s := ev.scratches[n-1]
		ev.scratches = ev.scratches[:n-1]
		return s
	}
	return core.NewScratch(ev.base)
}

func (ev *evaluator) putScratch(s *core.Scratch) {
	ev.scratchMu.Lock()
	ev.scratches = append(ev.scratches, s)
	ev.scratchMu.Unlock()
}

// evalAll evaluates a batch: unique un-cached chromosomes run once each on
// the worker pool (in deterministic key order for a reproducible trace),
// then every individual is filled from the cache. A chromosome cached as
// Failed is served from the cache like any other: every failure (a stage
// error or a panic) is a deterministic function of the chromosome, so
// evaluating it again could only fail again.
func (ev *evaluator) evalAll(ctx context.Context, pop []*Individual, gen int) error {
	var fresh []string
	seen := map[string]core.Params{}
	for _, in := range pop {
		key := in.Params.Key()
		if _, dup := seen[key]; dup {
			continue
		}
		if _, cached := ev.cache[key]; cached {
			continue
		}
		seen[key] = in.Params
		fresh = append(fresh, key)
	}
	sort.Strings(fresh)

	// The jobs channel is buffered to the full batch so a worker that
	// exits on error can never leave the producer blocked. Each evaluation
	// holds a budget slot, so total concurrency across optimizers sharing
	// the budget stays bounded.
	jobs := make(chan string, len(fresh))
	errs := make(chan error, len(fresh))
	var wg sync.WaitGroup
	for w := 0; w < ev.opt.Parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := range jobs {
				if err := ctx.Err(); err != nil {
					errs <- err
					return
				}
				if err := ev.budget.Acquire(ctx); err != nil {
					errs <- err
					return
				}
				err := ev.evalFresh(ctx, seen[key], key, gen)
				ev.budget.Release()
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for _, key := range fresh {
		jobs <- key
	}
	close(jobs)
	wg.Wait()
	// Drain and join every worker error instead of dropping all but the
	// first: a multi-worker batch can fail for several distinct reasons
	// (rate cap, cancellation) and the caller deserves all of them.
	close(errs)
	var all []error
	for err := range errs {
		all = append(all, err)
	}
	if len(all) > 0 {
		return errors.Join(all...)
	}
	// Log fresh results in key order (deterministic trace) and fill the
	// population. Degraded (failed) evaluations stay out of the trace —
	// they are recorded in log.Failures instead.
	for _, key := range fresh {
		if hit, ok := ev.cache[key]; ok && !hit.Failed {
			ev.log.Evaluations = append(ev.log.Evaluations, *hit)
		}
	}
	// Cache-hit accounting happens here, once results are known: every
	// individual beyond the one fresh evaluation of its key counts as a
	// hit — unless the evaluation failed. Failed entries are not wins of
	// the memoizer and must not inflate CacheHits.
	freshUsed := map[string]bool{}
	for _, in := range pop {
		key := in.Params.Key()
		hit := ev.cache[key]
		if hit == nil {
			return fmt.Errorf("nsga2: missing evaluation for %s", key)
		}
		in.Metrics = hit.Metrics
		in.Feasible = hit.Feasible
		in.Violation = hit.Violation
		in.Generation = hit.Generation
		in.Failed = hit.Failed
		if _, scheduled := seen[key]; scheduled && !freshUsed[key] {
			freshUsed[key] = true // the fresh evaluation itself, not a hit
		} else if !hit.Failed {
			ev.log.CacheHits++
			nsga2Evals.With("cache_hit").Inc()
		}
	}
	return nil
}

// evalFresh runs one chromosome through the flow. A failure degrades the
// individual instead of aborting the run (see degrade). Only context
// cancellation and the aggregate failure-rate cap abort the batch.
func (ev *evaluator) evalFresh(ctx context.Context, p core.Params, key string, gen int) error {
	scratch := ev.getScratch()
	defer ev.putScratch(scratch)
	res, err := scratch.RunCtx(ctx, p)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return ev.degrade(p, key, gen, err)
	}
	in := &Individual{
		Params:     p.Clone(),
		Metrics:    res.Metrics,
		Generation: gen,
		Feasible:   core.Feasible(res.Metrics, ev.base),
		Violation:  core.Violation(res.Metrics, ev.base),
	}
	ev.mu.Lock()
	ev.cache[key] = in
	ev.succeeded++
	ev.mu.Unlock()
	nsga2Evals.With("fresh").Inc()
	return nil
}

// maxFailureRate aborts a run once more than this fraction of its fresh
// evaluations have failed, checked after at least PopSize attempts.
// Failures below it degrade: the individual turns infeasible with maximal
// constraint violation, lands in RunLog.Failures, and the run goes on.
const maxFailureRate = 0.5

// degrade records a failed evaluation: the chromosome is cached as an
// infeasible individual with maximal constraint violation (so constrained
// domination breeds it out) and the failure lands in RunLog.Failures. The
// run aborts only when the aggregate failure rate crosses maxFailureRate
// over at least PopSize attempted evaluations.
func (ev *evaluator) degrade(p core.Params, key string, gen int, cause error) error {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	ev.cache[key] = &Individual{
		Params:     p.Clone(),
		Generation: gen,
		Feasible:   false,
		Violation:  math.Inf(1),
		Failed:     true,
	}
	ev.failed++
	nsga2Evals.With("failed").Inc()
	ev.log.Failures = append(ev.log.Failures, EvalFailure{
		Key:        key,
		Params:     p.Clone(),
		Generation: gen,
		Stage:      core.StageOf(cause),
		Class:      core.Classify(cause),
		Err:        cause.Error(),
	})
	total := ev.failed + ev.succeeded
	rate := float64(ev.failed) / float64(total)
	if total >= ev.opt.PopSize && rate > maxFailureRate {
		return fmt.Errorf("nsga2: aborting exploration: %d/%d evaluations failed (rate %.2f > cap %.2f), last: %w",
			ev.failed, total, rate, maxFailureRate, cause)
	}
	return nil
}

// dominates implements constrained domination (Deb): feasible beats
// infeasible; two infeasible compare by violation; two feasible compare by
// Pareto dominance on (security, −TNS).
func dominates(a, b *Individual) bool {
	switch {
	case a.Feasible && !b.Feasible:
		return true
	case !a.Feasible && b.Feasible:
		return false
	case !a.Feasible && !b.Feasible:
		return a.Violation < b.Violation
	}
	ao, bo := a.Objectives(), b.Objectives()
	notWorse := ao[0] <= bo[0] && ao[1] <= bo[1]
	strictlyBetter := ao[0] < bo[0] || ao[1] < bo[1]
	return notWorse && strictlyBetter
}

// rankAndCrowd assigns non-domination ranks and crowding distances.
func rankAndCrowd(pop []*Individual) {
	fronts := sortFronts(pop)
	for _, front := range fronts {
		crowd(front)
	}
}

func sortFronts(pop []*Individual) [][]*Individual {
	n := len(pop)
	domCount := make([]int, n)
	dominated := make([][]int, n)
	var first []int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if dominates(pop[i], pop[j]) {
				dominated[i] = append(dominated[i], j)
			} else if dominates(pop[j], pop[i]) {
				domCount[i]++
			}
		}
		if domCount[i] == 0 {
			pop[i].rank = 0
			first = append(first, i)
		}
	}
	var fronts [][]*Individual
	cur := first
	rank := 0
	for len(cur) > 0 {
		var front []*Individual
		var next []int
		for _, i := range cur {
			front = append(front, pop[i])
			for _, j := range dominated[i] {
				domCount[j]--
				if domCount[j] == 0 {
					pop[j].rank = rank + 1
					next = append(next, j)
				}
			}
		}
		fronts = append(fronts, front)
		cur = next
		rank++
	}
	return fronts
}

func crowd(front []*Individual) {
	n := len(front)
	for _, in := range front {
		in.crowding = 0
	}
	if n <= 2 {
		for _, in := range front {
			in.crowding = math.Inf(1)
		}
		return
	}
	for obj := 0; obj < 2; obj++ {
		sort.Slice(front, func(i, j int) bool {
			return front[i].Objectives()[obj] < front[j].Objectives()[obj]
		})
		lo := front[0].Objectives()[obj]
		hi := front[n-1].Objectives()[obj]
		front[0].crowding = math.Inf(1)
		front[n-1].crowding = math.Inf(1)
		if hi == lo {
			continue
		}
		for i := 1; i < n-1; i++ {
			front[i].crowding += (front[i+1].Objectives()[obj] - front[i-1].Objectives()[obj]) / (hi - lo)
		}
	}
}

// better implements the crowded-comparison operator.
func better(a, b *Individual) bool {
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.crowding > b.crowding
}

// crossoverP is the probability that a parent pair crosses over; mutationP
// is each gene's probability of mutating.
const crossoverP, mutationP = 0.9, 0.1

// makeOffspring produces PopSize children via binary tournament, uniform
// crossover and per-gene mutation.
func makeOffspring(pop []*Individual, k int, rng *rand.Rand, opt Options) []*Individual {
	tournament := func() *Individual {
		a := pop[rng.Intn(len(pop))]
		b := pop[rng.Intn(len(pop))]
		if better(a, b) {
			return a
		}
		return b
	}
	var out []*Individual
	for len(out) < opt.PopSize {
		p1, p2 := tournament(), tournament()
		c1, c2 := p1.Params.Clone(), p2.Params.Clone()
		if rng.Float64() < crossoverP {
			crossover(&c1, &c2, rng)
		}
		mutate(&c1, k, rng, mutationP)
		mutate(&c2, k, rng, mutationP)
		out = append(out, &Individual{Params: c1}, &Individual{Params: c2})
	}
	return out[:opt.PopSize]
}

// crossover swaps genes uniformly between two chromosomes.
func crossover(a, b *core.Params, rng *rand.Rand) {
	if rng.Intn(2) == 0 {
		a.Op, b.Op = b.Op, a.Op
	}
	if rng.Intn(2) == 0 {
		a.LDAGridN, b.LDAGridN = b.LDAGridN, a.LDAGridN
	}
	if rng.Intn(2) == 0 {
		a.LDAIters, b.LDAIters = b.LDAIters, a.LDAIters
	}
	for i := range a.ScaleM {
		if rng.Intn(2) == 0 {
			a.ScaleM[i], b.ScaleM[i] = b.ScaleM[i], a.ScaleM[i]
		}
	}
}

// mutate resets genes to random admissible values with probability p each.
func mutate(p *core.Params, k int, rng *rand.Rand, prob float64) {
	if rng.Float64() < prob {
		if p.Op == core.CS {
			p.Op = core.LDA
		} else {
			p.Op = core.CS
		}
	}
	if rng.Float64() < prob {
		p.LDAGridN = core.LDAGridValues[rng.Intn(len(core.LDAGridValues))]
	}
	if rng.Float64() < prob {
		p.LDAIters = core.LDAIterValues[rng.Intn(len(core.LDAIterValues))]
	}
	for i := 0; i < k; i++ {
		if rng.Float64() < prob {
			p.ScaleM[i] = core.ScaleValues[rng.Intn(len(core.ScaleValues))]
		}
	}
}

// environmentalSelect keeps the best n individuals by rank then crowding.
func environmentalSelect(pop []*Individual, n int) []*Individual {
	rankAndCrowd(pop)
	sort.SliceStable(pop, func(i, j int) bool { return better(pop[i], pop[j]) })
	if len(pop) > n {
		pop = pop[:n]
	}
	return pop
}

// paretoFront extracts the feasible non-dominated subset of the
// evaluations, sorted by ascending security.
func paretoFront(all []Individual) []Individual {
	var feas []*Individual
	for i := range all {
		if all[i].Feasible {
			feas = append(feas, &all[i])
		}
	}
	var front []Individual
	for _, a := range feas {
		dominated := false
		for _, b := range feas {
			if a != b && dominates(b, a) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, *a)
		}
	}
	sort.Slice(front, func(i, j int) bool {
		if front[i].Metrics.Security != front[j].Metrics.Security {
			return front[i].Metrics.Security < front[j].Metrics.Security
		}
		return front[i].Metrics.TNS > front[j].Metrics.TNS
	})
	// Collapse duplicate objective points.
	out := front[:0]
	for i, in := range front {
		if i == 0 || in.Metrics.Security != front[i-1].Metrics.Security ||
			in.Metrics.TNS != front[i-1].Metrics.TNS {
			out = append(out, in)
		}
	}
	return out
}
