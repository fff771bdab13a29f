// Package gdsiiguard is the public API of the GDSII-Guard reproduction: an
// ECO (Engineering Change Order) anti-Trojan layout-hardening flow with
// exploratory timing-security trade-offs, after Wei, Zhang and Luo
// (DAC 2023).
//
// The package wraps the internal physical-design substrate (placement,
// routing, STA, power, DRC, GDSII I/O) behind three operations:
//
//   - LoadBenchmark builds one of the twelve built-in evaluation designs,
//     places it, and evaluates its baseline metrics;
//   - Design.Harden applies one flow configuration (Cell Shift or Local
//     Density Adjustment plus Routing Width Scaling) and returns the
//     hardened layout with its security/timing/power/DRC metrics;
//   - Design.Explore runs the NSGA-II multi-objective optimizer over the
//     flow parameter space and returns the explored security-timing
//     Pareto front.
//
// Hardened layouts can be exported as DEF or binary GDSII.
package gdsiiguard

import (
	"context"
	"fmt"
	"io"
	"time"

	"gdsiiguard/internal/attack"
	"gdsiiguard/internal/benchdesigns"
	"gdsiiguard/internal/core"
	"gdsiiguard/internal/experiments"
	"gdsiiguard/internal/gdsii"
	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/nsga2"
	"gdsiiguard/internal/opencell45"
	"gdsiiguard/internal/sdc"
)

// Metrics reports the post-design evaluation of a layout (§II-C of the
// paper): the normalized security score, its raw components, timing, power
// and design-rule violations.
type Metrics struct {
	// Security is α·ERsites/base + (1−α)·ERtracks/base; the baseline
	// scores 1.0 and lower is more secure.
	Security float64
	// ERSites is the total free placement sites of all exploitable
	// regions; ERTracks the unused routing tracks over them.
	ERSites  int
	ERTracks float64
	// TNS and WNS are total/worst negative slack in picoseconds.
	TNS, WNS float64
	// PowerMW is total power in milliwatts.
	PowerMW float64
	// DRC is the design-rule violation count.
	DRC int
	// Runtime is the wall time of the producing step.
	Runtime time.Duration
}

func fromCore(m core.Metrics) Metrics {
	return Metrics{
		Security: m.Security,
		ERSites:  m.ERSites,
		ERTracks: m.ERTracks,
		TNS:      m.TNS,
		WNS:      m.WNS,
		PowerMW:  m.PowerMW,
		DRC:      m.DRC,
		Runtime:  m.Runtime,
	}
}

// Operator selects the anti-Trojan ECO placement operator.
type Operator string

// The two operators of §III-B.
const (
	CellShift          Operator = "CS"
	LocalDensityAdjust Operator = "LDA"
)

// FlowParams is one point of the flow parameter space (Table I).
type FlowParams struct {
	Op Operator
	// LDAGridN ∈ {2,4,8,16,32} and LDAIters ∈ {1,2,3} configure LDA.
	LDAGridN, LDAIters int
	// ScaleM holds the per-metal routing width scale factors, each in
	// {1.0, 1.2, 1.5}; nil means 1.0 everywhere.
	ScaleM []float64
}

// Validate checks the parameters without a design: the operator, the
// Table I domains and the ScaleM length. Every design is placed over the
// embedded 45nm library (LoadBenchmark and LoadDEF alike), so its routing
// layer count is known up front; a nil FlowParams is the default flow and
// valid. Harden refuses exactly the parameters Validate refuses.
func (p *FlowParams) Validate() error {
	_, err := p.toCore(opencell45.MustLoad().NumLayers())
	return err
}

func (p *FlowParams) toCore(k int) (core.Params, error) {
	out := core.DefaultParams(k)
	if p == nil {
		return out, nil
	}
	if p.Op != "" {
		if p.Op != CellShift && p.Op != LocalDensityAdjust {
			return out, fmt.Errorf("gdsiiguard: unknown operator %q (want %q or %q)",
				p.Op, CellShift, LocalDensityAdjust)
		}
		out.Op = core.Operator(p.Op)
	}
	if p.LDAGridN != 0 {
		out.LDAGridN = p.LDAGridN
	}
	if p.LDAIters != 0 {
		out.LDAIters = p.LDAIters
	}
	if p.ScaleM != nil {
		if len(p.ScaleM) != k {
			return out, fmt.Errorf("gdsiiguard: ScaleM needs %d entries, got %d", k, len(p.ScaleM))
		}
		copy(out.ScaleM, p.ScaleM)
	}
	return out, out.Validate(k)
}

// ErrorClass reports how a flow failure is classified: "permanent"
// failures are deterministic for the input, "panic" marks a panic
// contained inside a flow stage, and "canceled" marks context
// cancellation or deadline expiry. It returns "" for nil.
func ErrorClass(err error) string { return string(core.Classify(err)) }

// Design is a placed, constrained benchmark design with its evaluated
// baseline.
type Design struct {
	name string
	base *core.Baseline
}

// Benchmarks lists the built-in benchmark design names (the paper's
// twelve-design evaluation suite).
func Benchmarks() []string { return benchdesigns.Names() }

// LoadBenchmark builds and evaluates a built-in benchmark design.
func LoadBenchmark(name string) (*Design, error) {
	d, err := benchdesigns.Build(name)
	if err != nil {
		return nil, err
	}
	base, err := core.EvalBaseline(d.Layout, core.FlowConfig{
		Constraints: d.Cons,
		Activity:    d.Spec.Activity,
		Seed:        1,
	})
	if err != nil {
		return nil, err
	}
	return &Design{name: name, base: base}, nil
}

// LoadDEF reads a placed DEF layout over the embedded 45nm library and
// evaluates it with the given clock period; assets names the
// security-critical instances.
func LoadDEF(r io.Reader, clockPS float64, assets []string) (*Design, error) {
	l, err := layout.ReadDEF(r, opencell45.MustLoad())
	if err != nil {
		return nil, err
	}
	if len(assets) > 0 {
		if _, err := l.Netlist.MarkCritical(assets); err != nil {
			return nil, err
		}
	}
	if clockPS <= 0 {
		return nil, fmt.Errorf("gdsiiguard: clock period must be positive")
	}
	cons := &sdc.Constraints{Clocks: []sdc.Clock{{Name: "clk", Port: "clk", PeriodPS: clockPS}}}
	base, err := core.EvalBaseline(l, core.FlowConfig{Constraints: cons, Seed: 1})
	if err != nil {
		return nil, err
	}
	return &Design{name: l.Netlist.Name, base: base}, nil
}

// Name returns the design name.
func (d *Design) Name() string { return d.name }

// Baseline returns the unhardened design's metrics (Security is 1.0 by
// definition).
func (d *Design) Baseline() Metrics { return fromCore(d.base.Metrics) }

// Assets returns the number of security-critical instances.
func (d *Design) Assets() int { return len(d.base.Layout.Netlist.CriticalInsts()) }

// Hardened is the outcome of one flow application.
type Hardened struct {
	Metrics Metrics
	result  *core.Result
}

// Harden applies one flow configuration (nil: the default Cell Shift flow
// with unscaled routing) and returns the hardened layout.
func (d *Design) Harden(p *FlowParams) (*Hardened, error) {
	return d.HardenCtx(context.Background(), p)
}

// HardenCtx is Harden with cooperative cancellation: the flow observes ctx
// between its stages and returns ctx.Err() promptly once ctx is cancelled
// or its deadline passes. A Design is safe for concurrent HardenCtx calls;
// the baseline is never modified.
func (d *Design) HardenCtx(ctx context.Context, p *FlowParams) (*Hardened, error) {
	cp, err := p.toCore(d.base.Layout.Lib().NumLayers())
	if err != nil {
		return nil, err
	}
	res, err := core.RunCtx(ctx, d.base, cp)
	if err != nil {
		return nil, err
	}
	return &Hardened{Metrics: fromCore(res.Metrics), result: res}, nil
}

// WriteDEF exports the hardened layout as DEF.
func (h *Hardened) WriteDEF(w io.Writer) error {
	return layout.WriteDEF(w, h.result.Layout)
}

// WriteGDSII exports the hardened layout (cells and routed wires) as a
// binary GDSII stream. The export streams record by record — the library
// is never materialized — so it holds at SoC scale in O(record) memory.
func (h *Hardened) WriteGDSII(w io.Writer) error {
	return gdsii.StreamLayout(w, h.result.Layout, h.result.Routes.WireSource(h.result.Layout))
}

// ExploreOptions sizes the NSGA-II exploration.
type ExploreOptions struct {
	// PopSize and Generations default to 16 and 8.
	PopSize, Generations int
	// Parallelism bounds concurrent flow evaluations (default NumCPU).
	Parallelism int
	// Seed drives all stochastic choices (default 1).
	Seed int64
	// Checkpoint, when set, receives an opaque serialized snapshot of the
	// optimizer state after every completed generation; persisting the
	// latest blob makes the exploration resumable after a crash. The hook
	// runs synchronously on the optimizer goroutine; an error aborts the
	// exploration. Never serialized with the options.
	Checkpoint func(state []byte) error `json:"-"`
	// Resume, when non-empty, is a blob from a previous run's Checkpoint
	// hook; the exploration continues that run's trajectory instead of
	// starting over, and produces the exact front the uninterrupted run
	// would have. PopSize, Seed and the design must match the original
	// run. Never serialized with the options.
	Resume []byte `json:"-"`
}

// ParetoPoint is one solution of the explored front.
type ParetoPoint struct {
	Params  FlowParams
	Metrics Metrics
}

// DeltaStats reports what the exploration's cross-chromosome delta
// evaluation reused versus recomputed: child chromosomes are evaluated
// relative to previously evaluated relatives (shared operator placements
// and route geometry) rather than from the baseline, with bit-identical
// results. All counters are totals across the exploration's evaluations;
// see core.DeltaStats for the fields.
type DeltaStats = core.DeltaStats

// Exploration is the result of a Design.Explore run.
type Exploration struct {
	// Front is the feasible Pareto front, sorted by ascending security.
	Front []ParetoPoint
	// Evaluations counts distinct evaluated configurations.
	Evaluations int
	// Knee indexes the knee-point solution in Front (-1 if empty).
	Knee int
	// Failures counts evaluations that failed and were degraded to
	// infeasible points instead of aborting the exploration.
	Failures int
	// Delta reports cross-chromosome evaluation reuse (see DeltaStats).
	Delta DeltaStats
}

// Explore runs the multi-objective flow-parameter exploration (§III-D).
func (d *Design) Explore(opt ExploreOptions) (*Exploration, error) {
	return d.ExploreCtx(context.Background(), opt)
}

// ExploreCtx is Explore with cooperative cancellation: the optimizer and
// its evaluation workers observe ctx, so a cancelled exploration stops
// within roughly one flow evaluation's latency.
func (d *Design) ExploreCtx(ctx context.Context, opt ExploreOptions) (*Exploration, error) {
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	nopt := nsga2.Options{
		PopSize:     opt.PopSize,
		Generations: opt.Generations,
		Parallelism: opt.Parallelism,
		Seed:        seed,
	}
	if hook := opt.Checkpoint; hook != nil {
		nopt.Checkpoint = func(cp *nsga2.Checkpoint) error {
			blob, err := cp.Marshal()
			if err != nil {
				return err
			}
			return hook(blob)
		}
	}
	if len(opt.Resume) > 0 {
		cp, err := nsga2.UnmarshalCheckpoint(opt.Resume)
		if err != nil {
			return nil, err
		}
		nopt.Resume = cp
	}
	log, err := nsga2.OptimizeCtx(ctx, d.base, nopt)
	if err != nil {
		return nil, err
	}
	out := &Exploration{
		Evaluations: len(log.Evaluations),
		Knee:        -1,
		Failures:    len(log.Failures),
		Delta:       log.Delta,
	}
	for _, in := range log.Front {
		out.Front = append(out.Front, ParetoPoint{
			Params: FlowParams{
				Op:       Operator(in.Params.Op),
				LDAGridN: in.Params.LDAGridN,
				LDAIters: in.Params.LDAIters,
				ScaleM:   append([]float64(nil), in.Params.ScaleM...),
			},
			Metrics: fromCore(in.Metrics),
		})
	}
	if knee := experiments.SelectKnee(log.Front); knee != nil {
		for i, in := range log.Front {
			if in.Params.Key() == knee.Params.Key() {
				out.Knee = i
				break
			}
		}
	}
	return out, nil
}

// AttackResult summarizes a simulated fabrication-time Trojan insertion
// attempt (the paper's threat model run from the adversary's side).
type AttackResult struct {
	// Inserted reports whether the attacker found a viable implant site
	// and victim; Reason explains a failure.
	Inserted bool
	Reason   string
	// Victim is the tapped security-critical instance (when inserted).
	Victim string
	// TapDistUM is the tap routing distance in µm; SlackAfterPS the
	// victim's remaining slack with the implant charged.
	TapDistUM    float64
	SlackAfterPS float64
}

func fromAttack(r *attack.Result) *AttackResult {
	return &AttackResult{
		Inserted:     r.Inserted,
		Reason:       r.Reason,
		Victim:       r.Victim,
		TapDistUM:    r.TapDistUM,
		SlackAfterPS: r.SlackAfterPS,
	}
}

// SimulateAttack attempts an A2-style Trojan insertion on the unhardened
// baseline layout.
func (d *Design) SimulateAttack() (*AttackResult, error) {
	res, err := attack.Attempt(d.base.Layout, d.base.Routes, d.base.Timing,
		attack.DefaultTrojan(), d.base.Config.Security)
	if err != nil {
		return nil, err
	}
	return fromAttack(res), nil
}

// SimulateAttack attempts an A2-style Trojan insertion on the hardened
// layout, using the same security parameters the design was evaluated
// under (so baseline and hardened attack simulations are comparable).
func (h *Hardened) SimulateAttack() (*AttackResult, error) {
	res, err := attack.Attempt(h.result.Layout, h.result.Routes, h.result.Timing,
		attack.DefaultTrojan(), h.result.Config.Security)
	if err != nil {
		return nil, err
	}
	return fromAttack(res), nil
}
