package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"gdsiiguard/internal/benchdesigns"
	"gdsiiguard/internal/core"
	"gdsiiguard/internal/nsga2"
)

// AblationOperators (A1) contrasts the two ECO placement operators on a
// loose-timing and a tight-timing design, the design-dependence §III-B
// motivates: CS suits loose designs; LDA preserves timing on tight ones.
type OperatorAblation struct {
	Design      string
	Tight       bool
	CS, LDA     core.Metrics
	BaselineTNS float64
}

// RunOperatorAblation evaluates CS-only and LDA-only flows on a design.
func RunOperatorAblation(name string, seed int64) (*OperatorAblation, error) {
	d, err := benchdesigns.Build(name)
	if err != nil {
		return nil, err
	}
	base, err := core.EvalBaseline(d.Layout, core.FlowConfig{
		Constraints: d.Cons, Activity: d.Spec.Activity, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	k := d.Layout.Lib().NumLayers()
	pCS := core.DefaultParams(k)
	rCS, err := core.Run(base, pCS)
	if err != nil {
		return nil, err
	}
	pLDA := core.DefaultParams(k)
	pLDA.Op = core.LDA
	pLDA.LDAGridN = 8
	pLDA.LDAIters = 2
	rLDA, err := core.Run(base, pLDA)
	if err != nil {
		return nil, err
	}
	return &OperatorAblation{
		Design:      name,
		Tight:       d.Spec.Tight(),
		CS:          rCS.Metrics,
		LDA:         rLDA.Metrics,
		BaselineTNS: base.Metrics.TNS,
	}, nil
}

// OperatorAblationReport renders A1.
func OperatorAblationReport(rows []*OperatorAblation) string {
	var b strings.Builder
	b.WriteString("Ablation A1 — Cell Shift vs. Local Density Adjustment per timing character\n\n")
	fmt.Fprintf(&b, "%-14s %6s %22s %22s\n", "Design", "tight", "CS (sec / TNS)", "LDA (sec / TNS)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %6v    %6.3f / %-10.1f    %6.3f / %-10.1f\n",
			r.Design, r.Tight, r.CS.Security, r.CS.TNS, r.LDA.Security, r.LDA.TNS)
	}
	return b.String()
}

// RWSAblation (A2) quantifies §IV-C's observation that Routing Width
// Scaling removes extra routing tracks on top of ECO placement: "the
// normalized free routing tracks are 15% less than the site counterpart".
type RWSAblation struct {
	Design string
	// Unscaled and Scaled are the flow metrics with scale 1.0 everywhere
	// vs. scale 1.2 on the signal stack.
	Unscaled, Scaled core.Metrics
}

// RunRWSAblation evaluates the CS flow with and without width scaling.
func RunRWSAblation(name string, seed int64) (*RWSAblation, error) {
	d, err := benchdesigns.Build(name)
	if err != nil {
		return nil, err
	}
	base, err := core.EvalBaseline(d.Layout, core.FlowConfig{
		Constraints: d.Cons, Activity: d.Spec.Activity, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	k := d.Layout.Lib().NumLayers()
	p0 := core.DefaultParams(k)
	r0, err := core.Run(base, p0)
	if err != nil {
		return nil, err
	}
	p1 := core.DefaultParams(k)
	for i := 0; i < k && i < 6; i++ {
		p1.ScaleM[i] = 1.2
	}
	r1, err := core.Run(base, p1)
	if err != nil {
		return nil, err
	}
	return &RWSAblation{Design: name, Unscaled: r0.Metrics, Scaled: r1.Metrics}, nil
}

// RWSAblationReport renders A2.
func RWSAblationReport(rows []*RWSAblation) string {
	var b strings.Builder
	b.WriteString("Ablation A2 — Routing Width Scaling effect on free routing tracks\n\n")
	fmt.Fprintf(&b, "%-14s %16s %16s %10s\n", "Design", "tracks (1.0x)", "tracks (1.2x)", "reduction")
	for _, r := range rows {
		red := 0.0
		if r.Unscaled.ERTracks > 0 {
			red = 100 * (1 - r.Scaled.ERTracks/r.Unscaled.ERTracks)
		}
		fmt.Fprintf(&b, "%-14s %16.0f %16.0f %9.1f%%\n",
			r.Design, r.Unscaled.ERTracks, r.Scaled.ERTracks, red)
	}
	b.WriteString("\n(paper: RWS leaves free tracks ~15% below the free-site counterpart)\n")
	return b.String()
}

// SearchAblation (A3) compares NSGA-II against random search at an equal
// evaluation budget — the justification for adopting NSGA-II (§IV-A).
type SearchAblation struct {
	Design string
	// Best feasible security score found by each strategy, and the number
	// of evaluations each used.
	NSGA2Best, RandomBest float64
	NSGA2Evals            int
	// Hypervolume-style proxy: the count of non-dominated feasible points.
	NSGA2Front, RandomFront int
}

// RunSearchAblation runs both strategies with the same budget.
func RunSearchAblation(name string, opt Options) (*SearchAblation, error) {
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
	out := &SearchAblation{Design: name, NSGA2Evals: len(log.Evaluations)}
	out.NSGA2Best = bestFeasibleSecurity(log.Evaluations)
	out.NSGA2Front = len(log.Front)

	// Random search with the same evaluation budget.
	rng := rand.New(rand.NewSource(opt.Seed + 1))
	k := d.Layout.Lib().NumLayers()
	var randomEvals []nsga2.Individual
	seen := map[string]bool{}
	for len(randomEvals) < out.NSGA2Evals {
		p := core.RandomParams(k, rng)
		if seen[p.Key()] {
			continue
		}
		seen[p.Key()] = true
		r, err := core.Run(base, p)
		if err != nil {
			return nil, err
		}
		randomEvals = append(randomEvals, nsga2.Individual{
			Params:   p,
			Metrics:  r.Metrics,
			Feasible: core.Feasible(r.Metrics, base),
		})
	}
	out.RandomBest = bestFeasibleSecurity(randomEvals)
	front := 0
	for i := range randomEvals {
		if !randomEvals[i].Feasible {
			continue
		}
		dominated := false
		for j := range randomEvals {
			if i == j || !randomEvals[j].Feasible {
				continue
			}
			oi, oj := randomEvals[i].Objectives(), randomEvals[j].Objectives()
			if oj[0] <= oi[0] && oj[1] <= oi[1] && (oj[0] < oi[0] || oj[1] < oi[1]) {
				dominated = true
				break
			}
		}
		if !dominated {
			front++
		}
	}
	out.RandomFront = front
	return out, nil
}

func bestFeasibleSecurity(evals []nsga2.Individual) float64 {
	best := 1.0
	for _, in := range evals {
		if in.Feasible && in.Metrics.Security < best {
			best = in.Metrics.Security
		}
	}
	return best
}

// SearchAblationReport renders A3.
func SearchAblationReport(r *SearchAblation) string {
	var b strings.Builder
	b.WriteString("Ablation A3 — NSGA-II vs. random search at equal evaluation budget\n\n")
	fmt.Fprintf(&b, "Design %s, %d evaluations each\n", r.Design, r.NSGA2Evals)
	fmt.Fprintf(&b, "  NSGA-II: best feasible security %.4f, %d front points\n", r.NSGA2Best, r.NSGA2Front)
	fmt.Fprintf(&b, "  Random:  best feasible security %.4f, %d front points\n", r.RandomBest, r.RandomFront)
	return b.String()
}

// DiceAblation (A4) quantifies the dicing stage's contribution on top of
// the pure Algorithm 1 row passes (see DESIGN.md §6.2): without it, mass
// accumulated against the passes' blind spots stays exploitable.
type DiceAblation struct {
	Design string
	// BaselineER is the unhardened exploitable-site count; WithoutDice and
	// WithDice the counts after CS without/with the dicing stage.
	BaselineER, WithoutDice, WithDice int
}

// RunDiceAblation runs CS with and without dicing on one design.
func RunDiceAblation(name string, seed int64) (*DiceAblation, error) {
	d, err := benchdesigns.Build(name)
	if err != nil {
		return nil, err
	}
	base, err := core.EvalBaseline(d.Layout, core.FlowConfig{
		Constraints: d.Cons, Activity: d.Spec.Activity, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	out := &DiceAblation{Design: name, BaselineER: base.Metrics.ERSites}
	for _, dice := range []bool{false, true} {
		l := base.Layout.Clone()
		core.Preprocess(l)
		core.CellShiftWithOptions(l, base.Config.Security.ThreshER, dice)
		res := &core.Result{}
		if err := core.Evaluate(l, base, res); err != nil {
			return nil, err
		}
		if dice {
			out.WithDice = res.Metrics.ERSites
		} else {
			out.WithoutDice = res.Metrics.ERSites
		}
	}
	return out, nil
}

// DiceAblationReport renders A4.
func DiceAblationReport(rows []*DiceAblation) string {
	var b strings.Builder
	b.WriteString("Ablation A4 — dicing stage contribution to Cell Shift\n\n")
	fmt.Fprintf(&b, "%-14s %10s %14s %12s\n", "Design", "baseline", "passes only", "with dicing")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %10d %14d %12d\n", r.Design, r.BaselineER, r.WithoutDice, r.WithDice)
	}
	return b.String()
}
