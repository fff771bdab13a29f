package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"gdsiiguard/internal/benchdesigns"
	"gdsiiguard/internal/core"
	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/route"
	"gdsiiguard/internal/sta"
)

// socSpec sizes the soc_eco workload.
type socSpec struct {
	// Design is the stamped SoC generator spec.
	Design benchdesigns.SoCSpec
	// SetupReps is how many times a run generates the design and evaluates
	// its baseline; setup_s is the median.
	SetupReps int
	// Moves bounds the relocations of one ECO; MaxFanout keeps relocated
	// cells off die-spanning nets (clock trees), so the change stays
	// tile-sized.
	Moves, MaxFanout int
}

func socDefault() (socSpec, error) {
	d, err := benchdesigns.SoCSpecOf("SoC_100k")
	return socSpec{Design: d, SetupReps: 3, Moves: 48, MaxFanout: 64}, err
}

// socSetup generates the SoC design and evaluates its baseline with every
// parallel stage pinned to one worker.
func socSetup(spec socSpec, t *Tracer, unit, parent int) (*benchdesigns.SoCDesign, *core.Baseline, error) {
	var d *benchdesigns.SoCDesign
	var base *core.Baseline
	var err error
	t.Time(unit, parent, "benchdesigns.build", func() { d, err = spec.Design.Build() })
	if err != nil {
		return nil, nil, err
	}
	t.Time(unit, parent, "core.baseline", func() {
		base, err = core.EvalBaseline(d.Layout, core.FlowConfig{
			Constraints: d.Cons, Activity: d.Spec.Tile.Activity, Seed: 1,
		})
	})
	return d, base, err
}

// socECO is one tile-local ECO evaluated through warm routing and delta
// STA against the baseline.
type socECO struct {
	layout *layout.Layout
	routes *route.Result
	timing *sta.Result
	warm   route.WarmStats
	delta  sta.DeltaStats
}

// ecoTiles lists the "tRR_CC/" instance-name prefixes of the logic tiles
// that hold at least one movable cell.
func ecoTiles(d *benchdesigns.SoCDesign) []string {
	has := map[string]bool{}
	for _, in := range d.Layout.Netlist.Insts {
		if in.Fixed {
			continue
		}
		if i := strings.IndexByte(in.Name, '/'); i > 0 {
			has[in.Name[:i+1]] = true
		}
	}
	var out []string
	for ty := 0; ty < d.Spec.TilesY; ty++ {
		for tx := 0; tx < d.Spec.TilesX; tx++ {
			p := fmt.Sprintf("t%02d_%02d/", ty, tx)
			if has[p] {
				out = append(out, p)
			}
		}
	}
	return out
}

// runECO applies one tile-local ECO to a clone of the baseline layout —
// up to spec.Moves movable cells of the tile, visited in a seeded order,
// each relocated to the nearest free run within two rows — and evaluates
// it strictly through route.Warm and sta.AnalyzeDelta. A declined warm
// route or delta analysis is an error: the workload measures those paths.
func runECO(spec socSpec, base *core.Baseline, prefix string, rng *rand.Rand, t *Tracer, unit, parent int) (*socECO, error) {
	var l *layout.Layout
	t.Time(unit, parent, "layout.clone", func() { l = base.Layout.Clone() })
	dirty, moved, err := relocate(spec, l, prefix, rng)
	if err != nil {
		return nil, err
	}
	if moved == 0 {
		return nil, fmt.Errorf("no movable cells in tile %s", prefix)
	}
	var geo *route.Geometry
	t.Time(unit, parent, "route.geometry", func() { geo = route.BuildGeometry(l) })
	var wres *route.Result
	var wst route.WarmStats
	t.Time(unit, parent, "route.warm", func() { wres, wst, err = route.Warm(l, base.Config.RouteOpts, geo, base.Routes, dirty) })
	if err != nil {
		return nil, fmt.Errorf("warm route: %w", err)
	}
	if wres == nil {
		return nil, fmt.Errorf("warm route declined (%s)", wst.Decline)
	}
	// The STA change mask is the warm route's ChangedNets plus the dirty
	// nets: a moved cell shifts a net's estimated RC even when its route
	// record is nil in both runs.
	changed := wst.ChangedNets
	for id, dt := range dirty {
		if dt {
			changed[id] = true
		}
	}
	var tres *sta.Result
	var tds sta.DeltaStats
	t.Time(unit, parent, "sta.delta", func() {
		tres, tds, err = sta.AnalyzeDelta(l, sta.Options{Constraints: base.Config.Constraints, Routes: wres}, base.Timing, changed)
	})
	if err != nil {
		return nil, fmt.Errorf("delta STA: %w", err)
	}
	if tres == nil {
		return nil, fmt.Errorf("delta STA declined: baseline timing carries no reusable graph")
	}
	return &socECO{layout: l, routes: wres, timing: tres, warm: wst, delta: tds}, nil
}

// relocate moves up to spec.Moves movable cells of one tile and marks every
// net attached to a moved cell dirty.
func relocate(spec socSpec, l *layout.Layout, prefix string, rng *rand.Rand) ([]bool, int, error) {
	var cands []int
	for i, in := range l.Netlist.Insts {
		if in.Fixed || !strings.HasPrefix(in.Name, prefix) {
			continue
		}
		huge := false
		for _, c := range in.Conns {
			if c.Net.NumTerms() > spec.MaxFanout {
				huge = true
				break
			}
		}
		if !huge && l.PlacementOf(in).Placed {
			cands = append(cands, i)
		}
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	dirty := make([]bool, len(l.Netlist.Nets))
	moved := 0
	for _, idx := range cands {
		if moved >= spec.Moves {
			break
		}
		in := l.Netlist.Insts[idx]
		from := l.PlacementOf(in)
		w := in.Master.WidthSites
		row, site := -1, -1
		for dr := -2; dr <= 2 && site < 0; dr++ {
			r := from.Row + dr
			if r < 0 || r >= l.NumRows {
				continue
			}
			for _, run := range l.FreeRuns(r) {
				if run.Len >= w && (r != from.Row || run.Start != from.Site) {
					row, site = r, run.Start
					break
				}
			}
		}
		if site < 0 {
			continue
		}
		l.Unplace(in)
		if err := l.Place(in, row, site); err != nil {
			return nil, 0, fmt.Errorf("re-place %s: %w", in.Name, err)
		}
		for _, c := range in.Conns {
			dirty[c.Net.ID] = true
		}
		moved++
	}
	return dirty, moved, nil
}

// checkECO re-analyzes one ECO from scratch: a cold route must give the
// warm route's wirelength, and a full STA over the warm routes must give
// the delta analysis's TNS and WNS. The SoC generator does not create nets
// in a reproducible order (see README.md), so these are self-consistency
// checks within the run, never comparisons against fixed values.
func checkECO(e *socECO, base *core.Baseline, r *report, t *Tracer, unit, parent int) error {
	var cold *route.Result
	var err error
	t.Time(unit, parent, "route.route", func() { cold, err = route.Route(e.layout, base.Config.RouteOpts) })
	if err != nil {
		return fmt.Errorf("check: cold route: %w", err)
	}
	if cold.TotalWL != e.routes.TotalWL {
		r.fail("soc_eco: cold route WL %d != warm route WL %d", cold.TotalWL, e.routes.TotalWL)
	}
	var full *sta.Result
	t.Time(unit, parent, "sta.analyze", func() {
		full, err = sta.Analyze(e.layout, sta.Options{Constraints: base.Config.Constraints, Routes: e.routes})
	})
	if err != nil {
		return fmt.Errorf("check: full STA: %w", err)
	}
	if full.TNS != e.timing.TNS || full.WNS != e.timing.WNS {
		r.fail("soc_eco: full STA TNS/WNS %v/%v != delta STA %v/%v", full.TNS, full.WNS, e.timing.TNS, e.timing.WNS)
	}
	return nil
}

// runSoC measures tile-local ECO re-evaluation on SoC_100k. A run sets the
// design up spec.SetupReps times (each a fresh generation and baseline;
// the last one is kept), runs and checks one untimed ECO, then times ECOs
// on seeded tiles until the window is spent, with a forced GC before each
// so one unit's garbage is not billed to the next.
func runSoC(spec socSpec, r *report, t *Tracer) error {
	pinWorkers(1)
	rng := rand.New(rand.NewSource(r.Seed))
	setupUnit := t.Unit()
	var d *benchdesigns.SoCDesign
	var base *core.Baseline
	hashes := map[string]bool{}
	for i := 0; i < spec.SetupReps; i++ {
		d, base = nil, nil
		runtime.GC()
		root := t.Open(setupUnit, 0, "setup")
		t0 := time.Now()
		var err error
		d, base, err = socSetup(spec, t, setupUnit, root)
		r.Setups = append(r.Setups, time.Since(t0).Seconds())
		t.Close(root)
		if err != nil {
			return err
		}
		fp := designFingerprint(spec.Design.Name, base)
		r.Fingerprints = append(r.Fingerprints, fp)
		hashes[fp.NetHash] = true
		progress("soc_eco setup %d: %.3fs %s", i, r.Setups[i], fp)
	}
	r.Config = resolvedConfig(base)
	r.Layer["benchdesigns.soc_net_orders"] = float64(len(hashes))
	tiles := ecoTiles(d)
	if len(tiles) == 0 {
		return fmt.Errorf("soc_eco: no logic tiles")
	}

	// Warm-up unit, checked against from-scratch analysis.
	checkUnit := t.Unit()
	croot := t.Open(checkUnit, 0, "check")
	e, err := runECO(spec, base, tiles[rng.Intn(len(tiles))], rng, t, checkUnit, croot)
	if err == nil {
		err = checkECO(e, base, r, t, checkUnit, croot)
	}
	t.Close(croot)
	if err != nil {
		return err
	}
	e = nil // release the checked layout before the timed units

	var m meter
	var replayed, rerouted, cone []float64
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < r.duration(); n++ {
		prefix := tiles[rng.Intn(len(tiles))]
		runtime.GC()
		// A traced run alternates untraced and traced units, so the two
		// medians give the tracing overhead on the same tile mix.
		ut := t
		if n%2 == 0 {
			ut = nil
		}
		unit := ut.Unit()
		root := ut.Open(unit, 0, "soc.eco")
		b := startBracket()
		e, err := runECO(spec, base, prefix, rng, ut, unit, root)
		wall := m.stop(b)
		ut.Close(root)
		r.Attempted++
		if err != nil {
			r.Failed++
			progress("soc_eco %s failed: %v", prefix, err)
			continue
		}
		if ut != nil {
			r.UnitsTraced = append(r.UnitsTraced, wall.Seconds())
		} else {
			r.Units = append(r.Units, wall.Seconds())
		}
		r.Evals++
		replayed = append(replayed, float64(e.warm.Replayed))
		rerouted = append(rerouted, float64(e.warm.Rerouted))
		cone = append(cone, float64(e.delta.ConeInsts))
	}
	r.Window = m.window()
	r.Layer["route.nets_replayed"] = median(replayed)
	r.Layer["route.nets_rerouted"] = median(rerouted)
	r.Layer["sta.cone_insts"] = median(cone)
	if t != nil {
		socSpeedups(base, r)
	}
	return nil
}

// socSpeedups times the level-parallel STA and the band-parallel operator
// mass scan at one worker and at the shipped default on the SoC baseline,
// requiring identical answers, then restores the pinned setting.
func socSpeedups(base *core.Baseline, r *report) {
	opts := sta.Options{Constraints: base.Config.Constraints, Routes: base.Routes}
	staAt := func(n int) (float64, *sta.Result) {
		sta.SetWorkers(n)
		best, kept := 0.0, (*sta.Result)(nil)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			res, err := sta.AnalyzeWithGraph(base.Layout, opts, base.TimingGraph())
			s := time.Since(t0).Seconds()
			if err != nil {
				r.fail("soc_eco: sta speedup: %v", err)
				return 0, nil
			}
			if i == 0 || s < best {
				best, kept = s, res
			}
		}
		return best, kept
	}
	seq, sres := staAt(1)
	par, pres := staAt(0)
	sta.SetWorkers(1)
	if sres != nil && pres != nil && (sres.TNS != pres.TNS || sres.WNS != pres.WNS) {
		r.fail("soc_eco: level-parallel STA TNS/WNS differs from sequential")
	}
	if par > 0 {
		r.Layer["sta.level_speedup"] = seq / par
	}
	massAt := func(n int) (float64, int) {
		core.SetOperatorBandWorkers(n)
		best, mass := 0.0, 0
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			mass = core.ExploitableFreeMass(base.Layout, base.Config.Security.ThreshER)
			if s := time.Since(t0).Seconds(); i == 0 || s < best {
				best = s
			}
		}
		return best, mass
	}
	mseq, m1 := massAt(1)
	mpar, m2 := massAt(0)
	core.SetOperatorBandWorkers(1)
	if m1 != m2 {
		r.fail("soc_eco: band-parallel mass %d != sequential %d", m2, m1)
	}
	if mpar > 0 {
		r.Layer["core.band_speedup"] = mseq / mpar
	}
}
