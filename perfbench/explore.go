package main

import (
	"context"
	"fmt"
	"time"

	"gdsiiguard"
	"gdsiiguard/internal/benchdesigns"
	"gdsiiguard/internal/core"
	"gdsiiguard/internal/drc"
	"gdsiiguard/internal/nsga2"
	"gdsiiguard/internal/power"
	"gdsiiguard/internal/route"
	"gdsiiguard/internal/security"
	"gdsiiguard/internal/sta"
)

// exploreSpec sizes the explore workload.
type exploreSpec struct {
	Design string
	// Pop and Gens are the NSGA-II population and generation budget.
	Pop, Gens int
	// Ring is the set of optimizer seeds one cycle explores. Exploration
	// cost depends strongly on the optimizer seed (openMSP430_2 at 16 × 8
	// spends 69–124 evaluations, 4.8–8.0 s, across seeds 1–10 and 101–110),
	// so every run explores the same ring in whole cycles and the
	// benchmark seed only rotates the order: runs differ in noise, not in
	// the amount of optimization they do.
	Ring []int64
	// WarmPop and WarmGens size the untimed warm-up exploration.
	WarmPop, WarmGens int
	// CycleSeconds is the nominal duration of one cycle: a run explores
	// --seconds / CycleSeconds cycles (at least one).
	CycleSeconds int
}

var exploreDefault = exploreSpec{
	Design: "openMSP430_2", Pop: 16, Gens: 8, Ring: []int64{1, 2, 3, 4},
	WarmPop: 4, WarmGens: 1, CycleSeconds: 20,
}

// hvRef is the fixed hypervolume reference point in (Security, TNS /
// baseline TNS), both minimized: the baseline itself scores (1, 1). It
// sits beyond every front point openMSP430_2 explorations produce
// (Security ≤ 1.2, TNS ratio ≤ 3.2 for seeds 1–4), so each point counts.
var hvRef = point2{X: 1.5, Y: 5}

// pinWorkers pins the route, STA and operator-band worker settings.
func pinWorkers(n int) {
	route.SetWorkers(n)
	sta.SetWorkers(n)
	core.SetOperatorBandWorkers(n)
}

// resolvedConfig records the workers each parallel stage resolves to on a
// baseline of the workload's main design under the current settings.
func resolvedConfig(base *core.Baseline) config {
	c := machineConfig()
	c.RouteSetting, c.STASetting, c.BandSetting = route.Workers(), sta.Workers(), core.OperatorBandWorkers()
	c.RouteWorkers = route.ResolvedWorkers(len(base.Layout.Netlist.Nets))
	c.STAWorkers = sta.ResolvedWorkers(len(base.Layout.Netlist.Insts))
	c.BandWorkers = core.ResolvedOperatorBandWorkers(base.Layout.NumRows)
	return c
}

// buildBaseline generates a built-in design and evaluates its baseline the
// way gdsiiguard.LoadBenchmark does, with the two steps traced apart.
func buildBaseline(t *Tracer, unit, parent int, name string) (*benchdesigns.Design, *core.Baseline, error) {
	var d *benchdesigns.Design
	var base *core.Baseline
	var err error
	t.Time(unit, parent, "benchdesigns.build", func() { d, err = benchdesigns.Build(name) })
	if err != nil {
		return nil, nil, err
	}
	t.Time(unit, parent, "core.baseline", func() {
		base, err = core.EvalBaseline(d.Layout, core.FlowConfig{
			Constraints: d.Cons, Activity: d.Spec.Activity, Seed: 1,
		})
	})
	return d, base, err
}

func designFingerprint(name string, base *core.Baseline) fingerprint {
	return fingerprint{
		Design: name, NetHash: netHash(base.Layout), Nets: len(base.Layout.Netlist.Nets),
		WL: base.Metrics.WirelengthDBU, TNS: base.Metrics.TNS,
	}
}

// exploreUnit is one timed exploration and what the checks need from it.
type exploreUnit struct {
	seed   int64
	design *gdsiiguard.Design
	ex     *gdsiiguard.Exploration
}

// runExplore measures Design.Explore at the default 16 × 8 shape with one
// evaluation in flight and every parallel stage pinned to one worker. Each
// unit explores from a freshly loaded design, so the stage memo starts
// empty; loading it is one set-up sample.
func runExplore(spec exploreSpec, r *report) error {
	pinWorkers(1)
	_, base, err := buildBaseline(nil, 0, 0, spec.Design)
	if err != nil {
		return err
	}
	r.Config = resolvedConfig(base)
	r.Config.Parallelism = 1
	r.Fingerprints = append(r.Fingerprints, designFingerprint(spec.Design, base))

	load := func() (*gdsiiguard.Design, error) {
		t0 := time.Now()
		d, err := gdsiiguard.LoadBenchmark(spec.Design)
		r.Setups = append(r.Setups, time.Since(t0).Seconds())
		return d, err
	}
	opts := func(seed int64) gdsiiguard.ExploreOptions {
		return gdsiiguard.ExploreOptions{PopSize: spec.Pop, Generations: spec.Gens, Parallelism: 1, Seed: seed}
	}
	d, err := load()
	if err != nil {
		return err
	}
	if d.Baseline().TNS != base.Metrics.TNS {
		r.fail("explore: LoadBenchmark baseline TNS %v != EvalBaseline %v", d.Baseline().TNS, base.Metrics.TNS)
	}
	if _, err := d.Explore(gdsiiguard.ExploreOptions{PopSize: spec.WarmPop, Generations: spec.WarmGens, Parallelism: 1, Seed: 1}); err != nil {
		return fmt.Errorf("warm-up exploration: %w", err)
	}

	ring := rotate(spec.Ring, r.Seed)
	var units []exploreUnit
	var m meter
	for cycle := 0; cycle < r.units(spec.CycleSeconds); cycle++ {
		for _, seed := range ring {
			d, err := load()
			if err != nil {
				return err
			}
			b := startBracket()
			ex, err := d.Explore(opts(seed))
			wall := m.stop(b)
			if err != nil {
				return fmt.Errorf("explore seed %d: %w", seed, err)
			}
			r.Units = append(r.Units, wall.Seconds())
			r.Evals += ex.Evaluations
			r.Attempted += ex.Evaluations + ex.Failures
			r.Failed += ex.Failures
			units = append(units, exploreUnit{seed: seed, design: d, ex: ex})
			progress("explore seed=%d %.3fs evals=%d front=%d", seed, wall.Seconds(), ex.Evaluations, len(ex.Front))
		}
	}
	r.Window = m.window()
	checkExploreUnits(units, r)
	return nil
}

// rotate returns ring rotated left by seed positions.
func rotate(ring []int64, seed int64) []int64 {
	n := int64(len(ring))
	off := int(((seed % n) + n) % n)
	return append(append([]int64(nil), ring[off:]...), ring[:off]...)
}

// checkExploreUnits re-runs every front point of each distinct seed from
// scratch (Design.Harden, a fresh clone with no memo) and requires the
// metrics the exploration reported; repeated explorations of one seed
// must produce identical fronts.
func checkExploreUnits(units []exploreUnit, r *report) {
	first := map[int64]*gdsiiguard.Exploration{}
	for _, u := range units {
		if prev, ok := first[u.seed]; ok {
			if !sameFront(prev, u.ex) {
				r.fail("explore seed %d: repeated exploration changed the front", u.seed)
			}
			continue
		}
		first[u.seed] = u.ex
		for i, p := range u.ex.Front {
			params := p.Params
			h, err := u.design.Harden(&params)
			if err != nil {
				r.fail("explore seed %d front[%d]: re-run: %v", u.seed, i, err)
				continue
			}
			if !sameMetrics(h.Metrics, p.Metrics) {
				r.fail("explore seed %d front[%d]: re-run metrics %+v != explored %+v", u.seed, i, h.Metrics, p.Metrics)
			}
		}
	}
}

func sameMetrics(a, b gdsiiguard.Metrics) bool {
	a.Runtime, b.Runtime = 0, 0
	return a == b
}

func sameFront(a, b *gdsiiguard.Exploration) bool {
	if len(a.Front) != len(b.Front) || a.Evaluations != b.Evaluations {
		return false
	}
	for i := range a.Front {
		if !sameMetrics(a.Front[i].Metrics, b.Front[i].Metrics) ||
			fmt.Sprint(a.Front[i].Params) != fmt.Sprint(b.Front[i].Params) {
			return false
		}
	}
	return true
}

// frontHV is the hypervolume of a front in (Security, TNS / baseline TNS).
func frontHV(front []nsga2.Individual, base core.Metrics) float64 {
	den := base.TNS
	if den > -1 {
		den = -1 // a timing-clean baseline normalizes by 1 ps
	}
	pts := make([]point2, len(front))
	for i, in := range front {
		pts[i] = point2{X: in.Metrics.Security, Y: in.Metrics.TNS / den}
	}
	return hypervolume(pts, hvRef)
}

// traceExplore is the traced explore run. It explores the ring's first
// seed twice — once through Design.Explore untraced, once through
// nsga2.OptimizeCtx (the call Design.Explore makes) with a generation
// span at every checkpoint — then replays the exploration's evaluations
// through a fresh core.Scratch with a span per evaluation, and calls each
// analysis layer on every evaluated layout to time it alone.
func traceExplore(spec exploreSpec, r *report, t *Tracer) error {
	pinWorkers(1)
	setup := t.Unit()
	root := t.Open(setup, 0, "setup")
	_, base, err := buildBaseline(t, setup, root, spec.Design)
	t.Close(root)
	if err != nil {
		return err
	}
	r.Config = resolvedConfig(base)
	r.Config.Parallelism = 1
	r.Fingerprints = append(r.Fingerprints, designFingerprint(spec.Design, base))
	seed := rotate(spec.Ring, r.Seed)[0]
	nopt := nsga2.Options{PopSize: spec.Pop, Generations: spec.Gens, Parallelism: 1, Seed: seed}

	// Warm-up, then the untraced reference exploration, run once before
	// and once after the traced one so drift does not read as overhead.
	d, err := gdsiiguard.LoadBenchmark(spec.Design)
	if err != nil {
		return err
	}
	if _, err := d.Explore(gdsiiguard.ExploreOptions{PopSize: spec.WarmPop, Generations: spec.WarmGens, Parallelism: 1, Seed: 1}); err != nil {
		return err
	}
	var ex *gdsiiguard.Exploration
	untracedRun := func() error {
		if d, err = gdsiiguard.LoadBenchmark(spec.Design); err != nil {
			return err
		}
		t0 := time.Now()
		ex, err = d.Explore(gdsiiguard.ExploreOptions{PopSize: spec.Pop, Generations: spec.Gens, Parallelism: 1, Seed: seed})
		r.Units = append(r.Units, time.Since(t0).Seconds())
		return err
	}
	if err := untracedRun(); err != nil {
		return err
	}

	// Traced exploration: same options on a fresh baseline.
	_, fresh, err := buildBaseline(nil, 0, 0, spec.Design)
	if err != nil {
		return err
	}
	unit := t.Unit()
	top := t.Open(unit, 0, "nsga2.optimize")
	t0 := time.Now()
	genStart := t0
	nopt.Checkpoint = func(*nsga2.Checkpoint) error {
		now := time.Now()
		t.Add(unit, top, "nsga2.generation", genStart, now)
		genStart = now
		return nil
	}
	log, err := nsga2.OptimizeCtx(context.Background(), fresh, nopt)
	traced := time.Since(t0).Seconds()
	t.Close(top)
	if err != nil {
		return err
	}
	if err := untracedRun(); err != nil {
		return err
	}
	untraced := median(r.Units)
	if !sameLogFront(log, ex) {
		r.fail("explore trace: the traced nsga2 run's front differs from Design.Explore's")
	}
	r.UnitsTraced = append(r.UnitsTraced, traced)
	r.Evals += len(log.Evaluations)
	r.Attempted += len(log.Evaluations) + len(log.Failures)
	r.Failed += len(log.Failures)
	r.Layer["nsga2.front_hv"] = frontHV(log.Front, base.Metrics)
	r.Layer["nsga2.front_size"] = float64(len(log.Front))
	checkExploreUnits([]exploreUnit{{seed: seed, design: d, ex: ex}}, r)

	evalSum, err := replayExplore(log, spec, r, t)
	if err != nil {
		return err
	}
	r.Layer["nsga2.self_s"] = untraced - evalSum
	return nil
}

// sameLogFront reports whether an optimizer log and a public exploration
// hold the same evaluation count and front.
func sameLogFront(log *nsga2.RunLog, ex *gdsiiguard.Exploration) bool {
	if len(log.Front) != len(ex.Front) || len(log.Evaluations) != ex.Evaluations {
		return false
	}
	for i, in := range log.Front {
		m, p := ex.Front[i].Metrics, ex.Front[i].Params
		if in.Metrics.Security != m.Security || in.Metrics.TNS != m.TNS || in.Metrics.WNS != m.WNS ||
			in.Metrics.PowerMW != m.PowerMW || in.Metrics.DRC != m.DRC ||
			in.Metrics.ERSites != m.ERSites || in.Metrics.ERTracks != m.ERTracks ||
			string(in.Params.Op) != string(p.Op) || fmt.Sprint(in.Params.ScaleM) != fmt.Sprint(p.ScaleM) {
			return false
		}
	}
	return true
}

// replayExplore re-evaluates the run's evaluations, in order, through a
// fresh delta-evaluating arena over a fresh baseline (so the stage memo
// starts empty, as in the exploration), and then times each analysis
// layer alone on every evaluated layout. It returns the summed evaluation
// span time.
func replayExplore(log *nsga2.RunLog, spec exploreSpec, r *report, t *Tracer) (float64, error) {
	_, base, err := buildBaseline(nil, 0, 0, spec.Design)
	if err != nil {
		return 0, err
	}
	s := core.NewScratch(base)
	unit := t.Unit()
	root := t.Open(unit, 0, "replay")
	var evalSum float64
	var opRun, reuse []float64
	var total core.DeltaStats
	for i, in := range log.Evaluations {
		before := s.Stats()
		var res *core.Result
		var rerr error
		d := t.Time(unit, root, "core.eval", func() { res, rerr = s.Run(in.Params) })
		if rerr != nil {
			t.Close(root)
			return 0, fmt.Errorf("replay eval %d: %w", i, rerr)
		}
		evalSum += d.Seconds()
		after := s.Stats()
		if after.OpRuns > before.OpRuns {
			opRun = append(opRun, d.Seconds())
		} else {
			reuse = append(reuse, d.Seconds())
		}
		if !sameCore(res.Metrics, in.Metrics) {
			r.fail("explore replay eval %d (%s): metrics %+v != explored %+v", i, in.Params.Key(), res.Metrics, in.Metrics)
		}
	}
	t.Close(root)
	total = s.Stats()
	if total != log.Delta {
		r.fail("explore replay: delta stats %+v != exploration %+v", total, log.Delta)
	}
	n := float64(len(log.Evaluations))
	r.Layer["core.eval_oprun_s"] = median(opRun)
	r.Layer["core.eval_reuse_s"] = median(reuse)
	r.Layer["core.op_reuse_ratio"] = float64(total.OpMemoHits+total.OpArenaHits) / n
	r.Layer["route.nets_rerouted_per_eval"] = float64(total.NetsRerouted) / n
	r.Layer["route.warm_ratio"] = float64(total.RoutesWarm) / n
	return evalSum, layerCalls(log, base, r, t)
}

// layerCalls materializes each distinct post-operator placement once with
// core.Run, then for every evaluation installs its routing-width scales
// and calls route, timing, power, security and DRC on the layout, timing
// each call and requiring the evaluation's metrics back.
func layerCalls(log *nsga2.RunLog, base *core.Baseline, r *report, t *Tracer) error {
	placed := map[string]*core.Result{}
	cfg := base.Config
	unit := t.Unit()
	root := t.Open(unit, 0, "layers")
	defer t.Close(root)
	for i, in := range log.Evaluations {
		key := in.Params.OpKey()
		res, ok := placed[key]
		if !ok {
			var err error
			if res, err = core.Run(base, in.Params); err != nil {
				return fmt.Errorf("layer calls: materialize %s: %w", key, err)
			}
			placed[key] = res
		}
		l := res.Layout
		copy(l.NDR.Scale, in.Params.ScaleM)
		var (
			routes *route.Result
			timing *sta.Result
			pw     power.Result
			assess *security.Assessment
			checks drc.Result
			err    error
		)
		t.Time(unit, root, "route.route", func() { routes, err = route.Route(l, cfg.RouteOpts) })
		if err != nil {
			return err
		}
		t.Time(unit, root, "sta.analyze", func() {
			timing, err = sta.AnalyzeWithGraph(l, sta.Options{Constraints: cfg.Constraints, Routes: routes}, base.TimingGraph())
		})
		if err != nil {
			return err
		}
		t.Time(unit, root, "power.analyze", func() {
			pw, err = power.Analyze(l, power.Options{Constraints: cfg.Constraints, Routes: routes, Activity: cfg.Activity})
		})
		if err != nil {
			return err
		}
		t.Time(unit, root, "security.assess", func() { assess, err = security.Assess(l, routes, timing, cfg.Security) })
		if err != nil {
			return err
		}
		t.Time(unit, root, "drc.check", func() { checks = drc.Check(l, routes) })
		got := core.Metrics{
			Security: security.Score(assess, base.Assessment, cfg.Alpha),
			ERSites:  assess.ERSites, ERTracks: assess.ERTracks,
			TNS: timing.TNS, WNS: timing.WNS, PowerMW: pw.TotalMW,
			DRC: checks.Violations, WirelengthDBU: routes.TotalWL,
		}
		if !sameCore(got, in.Metrics) {
			r.fail("explore layer calls eval %d (%s): %+v != explored %+v", i, in.Params.Key(), got, in.Metrics)
		}
	}
	return nil
}

func sameCore(a, b core.Metrics) bool {
	a.Runtime, b.Runtime = 0, 0
	return a == b
}
