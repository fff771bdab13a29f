package baselines

import (
	"fmt"
	"time"

	"gdsiiguard/internal/core"
	"gdsiiguard/internal/geom"
	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/place"
	"gdsiiguard/internal/security"
)

// Name identifies a baseline defense.
type Name string

// The three compared defenses.
const (
	ICAS Name = "ICAS"
	BISA Name = "BISA"
	Ba   Name = "Ba"
)

// icasUtilizations is the sweep of target core densities ICAS's
// undirected tuner tries.
var icasUtilizations = [...]float64{0.70, 0.75, 0.80, 0.85}

// RunICAS applies the ICAS-style defense: security-agnostic global
// re-placement at swept higher densities, with seed driving placement
// randomization. The candidate with the fewest remaining free sites that
// still routes without catastrophic overflow is kept — the tuner never
// looks at the asset list.
func RunICAS(base *core.Baseline, seed int64) (*core.Result, error) {
	start := time.Now()
	var best, fallback *core.Result
	for _, util := range icasUtilizations {
		nl := base.Layout.Netlist.Clone()
		l, err := place.Global(nl, place.GlobalOptions{
			TargetUtil:   util,
			RefinePasses: 2,
			Seed:         seed,
		})
		if err != nil {
			continue // density infeasible for this netlist
		}
		res := &core.Result{}
		if err := core.Evaluate(l, base, res); err != nil {
			return nil, fmt.Errorf("baselines: ICAS: %w", err)
		}
		// Undirected criterion: fewest free sites among candidates that
		// stay roughly routable; congested designs fall back to the
		// least-violating candidate (the real flow ships what it has).
		if fallback == nil || res.Metrics.DRC < fallback.Metrics.DRC {
			fallback = res
		}
		if res.Metrics.DRC > 200 {
			continue
		}
		if best == nil || res.Layout.FreeSites() < best.Layout.FreeSites() {
			best = res
		}
	}
	if best == nil {
		best = fallback
	}
	if best == nil {
		return nil, fmt.Errorf("baselines: ICAS could not place the design at any density")
	}
	best.Metrics.Runtime = time.Since(start)
	return best, nil
}

// RunBISA applies BISA: every free region of the layout is filled with
// functional tamper-evident logic, pushing local density toward 100%
// everywhere regardless of asset proximity.
func RunBISA(base *core.Baseline) (*core.Result, error) {
	start := time.Now()
	l := base.Layout.Clone()
	l.Netlist.Name = base.Layout.Netlist.Name
	core.Preprocess(l)
	if _, err := fillRunsWithLogic(l, allFreeRuns(l), "bisa", 8); err != nil {
		return nil, fmt.Errorf("baselines: BISA: %w", err)
	}
	res := &core.Result{}
	if err := core.Evaluate(l, base, res); err != nil {
		return nil, fmt.Errorf("baselines: BISA: %w", err)
	}
	res.Metrics.Runtime = time.Since(start)
	return res, nil
}

// baRadiusUM is Ba et al.'s fill radius around security-critical cells,
// in microns.
const baRadiusUM = 25

// RunBa applies Ba et al.: BISA-style functional filling restricted to the
// neighborhood of the security-critical cells (the prioritized empty
// spaces), leaving remote free regions open — cheaper than BISA, with
// discounted coverage.
func RunBa(base *core.Baseline) (*core.Result, error) {
	start := time.Now()
	l := base.Layout.Clone()
	core.Preprocess(l)
	radius := l.Lib().MicronsToDBU(baRadiusUM)

	// Free runs within the radius of any asset.
	var assets []geom.Rect
	for _, in := range l.Netlist.CriticalInsts() {
		if r := l.CellRect(in); !r.Empty() {
			assets = append(assets, r)
		}
	}
	var near []layout.SiteRun
	for _, run := range allFreeRuns(l) {
		lo := l.SiteDBU(run.Row, run.Start)
		center := geom.Pt(lo.X+int64(run.Len)*l.Lib().Site.Width/2, lo.Y+l.Lib().Site.Height/2)
		for _, a := range assets {
			if a.DistTo(center) <= radius {
				near = append(near, run)
				break
			}
		}
	}
	if _, err := fillRunsWithLogic(l, near, "ba", 8); err != nil {
		return nil, fmt.Errorf("baselines: Ba: %w", err)
	}
	res := &core.Result{}
	if err := core.Evaluate(l, base, res); err != nil {
		return nil, fmt.Errorf("baselines: Ba: %w", err)
	}
	res.Metrics.Runtime = time.Since(start)
	return res, nil
}

// assessOnly re-exposes the security assessment helper for tests.
func assessOnly(l *layout.Layout, p security.Params) (*security.Assessment, error) {
	return security.Assess(l, nil, nil, p)
}
