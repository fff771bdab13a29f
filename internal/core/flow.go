package core

import (
	"context"
	"math"
	"sync"
	"time"

	"gdsiiguard/internal/drc"
	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/power"
	"gdsiiguard/internal/route"
	"gdsiiguard/internal/sdc"
	"gdsiiguard/internal/security"
	"gdsiiguard/internal/sta"
)

// FlowConfig holds the design-independent configuration of the flow.
type FlowConfig struct {
	// Constraints are the design's timing constraints (required).
	Constraints *sdc.Constraints
	// Security holds Thresh_ER and the Trojan model. Unset (zero) fields
	// are filled individually from security.DefaultParams, so configuring
	// one field never discards the others.
	Security security.Params
	// Alpha weighs ERsites vs ERtracks in the security score (paper: 0.5).
	// Zero means "unset" and normalizes to 0.5.
	Alpha float64
	// RouteOpts configures the global router.
	RouteOpts route.Options
	// Activity is the switching activity for power analysis.
	Activity float64
	// Seed drives the flow's randomized tie-breaking.
	Seed int64
}

// normalized fills defaults field by field: an unset security parameter
// takes its default without clobbering the user-configured ones, and an
// unset Alpha becomes the paper's 0.5.
func (c FlowConfig) normalized() FlowConfig {
	def := security.DefaultParams()
	if c.Security.ThreshER == 0 {
		c.Security.ThreshER = def.ThreshER
	}
	if c.Security.TrojanCell == "" {
		c.Security.TrojanCell = def.TrojanCell
	}
	if c.Security.TrojanWireFactor == 0 {
		c.Security.TrojanWireFactor = def.TrojanWireFactor
	}
	// Security.MaxRadiusDBU: zero already means "core diagonal" downstream.
	if c.Alpha == 0 {
		c.Alpha = 0.5
	}
	return c
}

// Metrics are the post-design metrics of one evaluated layout (§II-C).
type Metrics struct {
	// Security is α·ERsites/ERsites_base + (1−α)·ERtracks/ERtracks_base.
	// Lower is more secure; the baseline scores 1.0 by construction.
	Security float64
	// ERSites and ERTracks are the raw exploitable-region totals.
	ERSites  int
	ERTracks float64
	// TNS and WNS in ps (TNS ≤ 0).
	TNS, WNS float64
	// PowerMW is total power in mW.
	PowerMW float64
	// DRC is the design-rule violation count.
	DRC int
	// WirelengthDBU is total routed wirelength.
	WirelengthDBU int64
	// Runtime is the wall time of the evaluation.
	Runtime time.Duration
}

// Baseline is the evaluated original design L_base that optimized layouts
// are normalized against.
type Baseline struct {
	Layout     *layout.Layout
	Routes     *route.Result
	Timing     *sta.Result
	Assessment *security.Assessment
	Metrics    Metrics
	Config     FlowConfig

	// memo is the lazily built cross-chromosome stage cache (see delta.go),
	// created on first Memo() call. It hangs off the baseline so every
	// consumer sharing one — nsga2 arena pools and the service design
	// cache — shares memoized stages automatically.
	memoOnce sync.Once
	memo     *StageMemo

	// graph is the lazily captured levelized timing graph (see
	// TimingGraph). Like the memo it hangs off the baseline: the graph
	// depends only on netlist connectivity, which every arena clone
	// preserves, so one levelization serves all evaluations.
	graphOnce sync.Once
	graph     *sta.Graph
}

// TimingGraph returns the baseline's levelized timing graph, built at most
// once. The baseline timing result usually carries it already (Analyze
// retains the graph it levelized); otherwise it is built from the netlist.
// A nil return (cyclic netlist) makes callers fall back to per-call
// levelization, which will report the cycle.
func (b *Baseline) TimingGraph() *sta.Graph {
	b.graphOnce.Do(func() {
		if b.Timing != nil && b.Timing.Graph() != nil {
			b.graph = b.Timing.Graph()
			return
		}
		if g, err := sta.BuildGraph(b.Layout.Netlist); err == nil {
			b.graph = g
		}
	})
	return b.graph
}

// EvalBaseline routes and analyzes the baseline layout and computes its
// security assessment. The baseline layout itself is not modified. Stage
// failures (including recovered panics) come back stage-tagged and
// classified (see FlowError / FlowPanicError).
func EvalBaseline(l *layout.Layout, cfg FlowConfig) (*Baseline, error) {
	cfg = cfg.normalized()
	res := &Result{}
	if err := evaluate(context.Background(), l, cfg, nil, nil, res); err != nil {
		return nil, err
	}
	return &Baseline{
		Layout:     l,
		Routes:     res.Routes,
		Timing:     res.Timing,
		Assessment: res.Assessment,
		Config:     cfg,
		Metrics:    res.Metrics,
	}, nil
}

// Result is one hardened layout with its metrics.
type Result struct {
	Layout     *layout.Layout
	Routes     *route.Result
	Timing     *sta.Result
	Assessment *security.Assessment
	Metrics    Metrics
	Params     Params
	// Config is the flow configuration the layout was evaluated under
	// (copied from the baseline), so downstream consumers — notably attack
	// simulation — use the same security parameters as the baseline.
	Config FlowConfig
	// CS / LDA operator telemetry (whichever ran).
	CSResult  CellShiftResult
	LDAResult LDAResult
}

// Preprocess locks every security-critical instance so subsequent ECO
// operators cannot remove or displace it (the flow's first step).
func Preprocess(l *layout.Layout) int {
	n := 0
	for _, in := range l.Netlist.CriticalInsts() {
		if !in.Fixed {
			in.Fixed = true
			n++
		}
	}
	return n
}

// Run applies the GDSII-Guard flow f(L_base; x) for one parameter vector:
// clone, preprocess, the selected anti-Trojan ECO placement operator,
// Routing Width Scaling, ECO routing, then metric extraction. The baseline
// is never modified.
func Run(base *Baseline, p Params) (*Result, error) {
	return RunCtx(context.Background(), base, p)
}

// RunCtx is Run with cooperative cancellation: the flow observes ctx
// between its stages (operator, routing, timing, power, security) and
// returns ctx.Err() as soon as cancellation or deadline expiry is seen.
// Stage failures — including panics recovered inside a stage — come back
// as stage-tagged, classified errors (FlowError / FlowPanicError), so one
// bad evaluation can be retried or degraded by callers instead of taking
// down a whole exploration.
func RunCtx(ctx context.Context, base *Baseline, p Params) (*Result, error) {
	return run(ctx, base, nil, p)
}

// Evaluate routes the (already transformed) layout and fills the result's
// routes, timing, security assessment and metrics, normalized against the
// baseline. It is shared between the GDSII-Guard flow and the baseline
// defenses so every scheme is measured identically.
func Evaluate(l *layout.Layout, base *Baseline, res *Result) error {
	return evaluate(context.Background(), l, base.Config, base, nil, res)
}

// run executes the whole flow for Run, RunCtx and Scratch.RunCtx. It
// validates p, materializes the working layout (a fresh clone when s is
// nil, otherwise the rewound arena), preprocesses it, applies the operator
// — through the stage memo on an arena, directly on a clone — installs the
// NDR scale vector (Routing Width Scaling) and evaluates the result.
func run(ctx context.Context, base *Baseline, s *Scratch, p Params) (*Result, error) {
	if err := p.Validate(base.Layout.Lib().NumLayers()); err != nil {
		return nil, &FlowError{Stage: StageValidate, Class: ClassPermanent, Err: err}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var l *layout.Layout
	if s == nil {
		l = base.Layout.Clone()
	} else {
		s.reset()
		l = s.l
		deltaEvals.With("delta").Inc()
	}
	start := time.Now()
	Preprocess(l)

	res := &Result{Layout: l, Params: p.Clone()}
	if err := timedStage(StageOperator, func() error {
		if s != nil {
			return s.applyOperator(ctx, p, res)
		}
		res.CSResult, res.LDAResult = runOperator(l, base, p, 0, LDAResult{}, nil)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Routing Width Scaling: install the NDR, then (re-)route under it.
	copy(l.NDR.Scale, p.ScaleM)
	if err := evaluate(ctx, l, base.Config, base, s, res); err != nil {
		return nil, err
	}
	res.Metrics.Runtime = time.Since(start)
	return res, nil
}

// runOperator runs p's ECO placement operator on l with near-critical cells
// pinned: Cell Shift, or the LDA chain from iteration from on top of acc
// (the telemetry of the iterations l already holds). step, when non-nil,
// sees every completed LDA iteration.
func runOperator(l *layout.Layout, base *Baseline, p Params, from int, acc LDAResult, step func(next int, lda LDAResult)) (CellShiftResult, LDAResult) {
	// Pin near-critical cells for the duration of the operator so neither
	// ECO placement nor cell shifting disturbs the critical paths (the
	// operators are timing-driven).
	unpin := pinCritical(l, base.Timing, slackMarginPS)
	defer unpin()
	if p.Op == CS {
		return CellShift(l, base.Config.Security.ThreshER), LDAResult{}
	}
	return CellShiftResult{}, ldaChain(l, p.LDAGridN, from, p.LDAIters, base.Config.Seed, base.Timing, acc, step)
}

// evaluate runs the analysis stages — route, timing, power, security, DRC
// — on l, which already holds its final placement and NDR, and fills res.
// Each stage runs under panic containment, failures come back stage-tagged
// and classified, and ctx is observed between stages. ref is the baseline
// the metrics are normalized against; nil evaluates the baseline itself
// (Security is 1.0 by construction and the timing analysis levelizes the
// graph). d is the arena whose memoized route geometry (keyed by
// res.Params' OpKey) the route stage reuses and in whose workspaces the
// route, timing and security stages run; nil builds the geometry and
// every analysis afresh. The result's Metrics.Runtime is the wall time
// of the evaluation itself (run widens it to the whole flow).
func evaluate(ctx context.Context, l *layout.Layout, cfg FlowConfig, ref *Baseline, d *Scratch, res *Result) (err error) {
	start := time.Now()
	end := beginEval()
	defer func() { end(err) }()
	var (
		routes *route.Result
		timing *sta.Result
		pw     power.Result
		assess *security.Assessment
		checks drc.Result
	)
	stages := []struct {
		stage Stage
		f     func() (err error)
	}{
		{StageRoute, func() (err error) {
			routes, err = routeStage(l, cfg, d, res.Params)
			return err
		}},
		{StageTiming, func() (err error) {
			timing, err = timingStage(l, cfg, ref, d, routes)
			return err
		}},
		{StagePower, func() (err error) {
			pw, err = power.Analyze(l, power.Options{Constraints: cfg.Constraints, Routes: routes, Activity: cfg.Activity})
			return err
		}},
		{StageSecurity, func() (err error) {
			if d == nil {
				assess, err = security.Assess(l, routes, timing, cfg.Security)
			} else {
				assess, err = d.assess.Assess(l, routes, timing, cfg.Security)
			}
			return err
		}},
		{StageDRC, func() error {
			checks = drc.Check(l, routes)
			return nil
		}},
	}
	for _, s := range stages {
		if err := timedStage(s.stage, s.f); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	score := 1.0
	if ref != nil {
		score = security.Score(assess, ref.Assessment, cfg.Alpha)
	}
	res.Layout = l
	res.Config = cfg
	res.Routes = routes
	res.Timing = timing
	res.Assessment = assess
	res.Metrics = Metrics{
		Security:      score,
		ERSites:       assess.ERSites,
		ERTracks:      assess.ERTracks,
		TNS:           timing.TNS,
		WNS:           timing.WNS,
		PowerMW:       pw.TotalMW,
		DRC:           checks.Violations,
		WirelengthDBU: routes.TotalWL,
		Runtime:       time.Since(start),
	}
	return nil
}

// routeStage routes l under its installed NDR. Without an arena it builds
// the placement geometry and a fresh route; an arena reuses the memoized
// geometry of p's operator placement, routes into its own workspace and
// counts the routed nets.
func routeStage(l *layout.Layout, cfg FlowConfig, d *Scratch, p Params) (*route.Result, error) {
	if d == nil {
		return route.RouteWithGeometry(l, cfg.RouteOpts, route.BuildGeometry(l))
	}
	routes, err := d.routes.Route(l, cfg.RouteOpts, d.memo.geometry(p.OpKey(), l))
	if err != nil {
		return nil, err
	}
	routed := 0
	for _, nr := range routes.NetRoutes {
		if nr != nil {
			routed++
		}
	}
	d.stats.NetsRerouted += routed
	deltaNets.Add(float64(routed))
	return routes, nil
}

// timingStage analyzes the routed layout over the whole graph, reusing the
// baseline's levelization when there is a reference baseline, in the
// arena's STA workspace when there is an arena.
func timingStage(l *layout.Layout, cfg FlowConfig, ref *Baseline, d *Scratch, routes *route.Result) (*sta.Result, error) {
	var graph *sta.Graph
	if ref != nil {
		graph = ref.TimingGraph()
	}
	opt := sta.Options{Constraints: cfg.Constraints, Routes: routes}
	if d == nil {
		return sta.AnalyzeWithGraph(l, opt, graph)
	}
	return d.timing.Analyze(l, opt, graph)
}

// pinCritical temporarily marks cells with slack below marginPS as Fixed;
// the returned function releases exactly the cells it pinned. The baseline
// timing's instance IDs are valid for the clone because Clone preserves
// ordering.
func pinCritical(l *layout.Layout, timing *sta.Result, marginPS float64) func() {
	if timing == nil {
		return func() {}
	}
	var pinned []*netlist.Instance
	for _, in := range l.Netlist.Insts {
		if in.Fixed || !in.Master.IsFunctional() {
			continue
		}
		if sl := timing.InstSlack(in); !math.IsInf(sl, 1) && sl < marginPS {
			in.Fixed = true
			pinned = append(pinned, in)
		}
	}
	return func() {
		for _, in := range pinned {
			in.Fixed = false
		}
	}
}

// NDRC and BetaPower are the hard constraints of §II-C: a feasible layout
// has at most NDRC DRC violations and at most BetaPower × the baseline's
// power.
const (
	NDRC      = 20
	BetaPower = 1.2
)

// Feasible reports whether the metrics meet the hard constraints of §II-C:
// DRC_viol ≤ NDRC and Power ≤ BetaPower × baseline power.
func Feasible(m Metrics, base *Baseline) bool {
	return m.DRC <= NDRC && m.PowerMW <= BetaPower*base.Metrics.PowerMW
}

// Violation aggregates the normalized excess over the hard constraints:
// 0 exactly when Feasible holds, and growing with how far either bound is
// exceeded.
func Violation(m Metrics, base *Baseline) float64 {
	v := 0.0
	if m.DRC > NDRC {
		v += float64(m.DRC-NDRC) / float64(NDRC)
	}
	if cap := BetaPower * base.Metrics.PowerMW; m.PowerMW > cap {
		v += (m.PowerMW - cap) / cap
	}
	return v
}
