package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gdsiiguard/internal/benchdesigns"
	"gdsiiguard/internal/core"
	"gdsiiguard/internal/gdsii"
	"gdsiiguard/internal/route"
	"gdsiiguard/internal/sta"
)

// SoCStage is one SoC pipeline stage: wall time plus bytes allocated while
// it ran. Allocation volume is the memory gate for the streaming paths — a
// change that regresses the codec back to whole-library buffering shows up
// here long before it shows up in wall time.
type SoCStage struct {
	Seconds    float64 `json:"seconds"`
	AllocBytes uint64  `json:"alloc_bytes"`
}

// SoCBench is the measured result for one SoC-scale design. The pipeline is
// generate -> streaming export -> streaming import -> operator-stage mass
// (sequential, then band-parallel) -> full harden. The harden is the real
// thing at 10^5+ cells: harden_baseline pattern-routes every net and runs
// the levelized STA once (building the timing graph that every later
// analysis reuses), then harden_eco applies a tile-local ECO — a bounded
// set of cell relocations inside one logic tile — evaluated strictly as a
// delta: warm-started routing replays every untouched net from the
// baseline donor and delta STA re-propagates only the changed-net cones,
// never the whole graph (HardenDelta records the replay split and the cone
// sizes, which are tile-bounded, not design-bounded).
type SoCBench struct {
	Design   string `json:"design"`
	Cells    int    `json:"cells"`
	GDSBytes int64  `json:"gds_bytes"`
	// MassWorkers is how many band workers the parallel mass stage resolved
	// to on this machine; 1 means mass_band degenerated to the sequential
	// path (single-CPU runner) and MassSpeedup is just run-to-run noise.
	MassWorkers int                 `json:"mass_workers"`
	MassSpeedup float64             `json:"mass_speedup"`
	Stages      map[string]SoCStage `json:"stages"`
	// HardenDelta is what the harden_eco delta evaluation reused.
	// Informational for -compare (never gated); benchSoC itself fails if
	// the ECO fell back to a cold route or a whole-graph STA.
	HardenDelta *ECODelta `json:"harden_delta,omitempty"`
}

// ECODelta reports the tile ECO's route.WarmStats and sta.DeltaStats
// counts.
type ECODelta struct {
	// NetsReplayed, NetsRerouted and NetsPromoted are the warm route's
	// Replayed, Rerouted and Promoted counts.
	NetsReplayed int `json:"nets_replayed"`
	NetsRerouted int `json:"nets_rerouted"`
	NetsPromoted int `json:"nets_promoted"`
	// StaChangedNets, StaConeInsts and StaConeNets are the delta STA's
	// ChangedNets, ConeInsts and ConeNets counts.
	StaChangedNets int `json:"sta_changed_nets"`
	StaConeInsts   int `json:"sta_cone_insts"`
	StaConeNets    int `json:"sta_cone_nets"`
}

// socThreshER is the exploitable-region threshold used for the mass stages;
// it matches the core package's default hardening parameters.
const socThreshER = 20

// measureSoC runs fn and returns its wall time and allocation volume
// (MemStats.TotalAlloc delta — cumulative, unaffected by GC timing).
func measureSoC(fn func() error) (SoCStage, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := fn()
	secs := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	return SoCStage{Seconds: secs, AllocBytes: m1.TotalAlloc - m0.TotalAlloc}, err
}

// benchSoC measures one SoC-scale design through the streaming pipeline.
func benchSoC(name string) (*SoCBench, error) {
	sb := &SoCBench{Design: name, Stages: map[string]SoCStage{}}

	var d *benchdesigns.SoCDesign
	st, err := measureSoC(func() error {
		var err error
		d, err = benchdesigns.BuildSoC(name)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	sb.Stages["generate"] = st
	sb.Cells = d.Cells
	if err := benchSoCPipeline(d, sb); err != nil {
		return nil, err
	}
	return sb, nil
}

// benchSoCPipeline runs the already-generated design through the measured
// stages: streaming export/import, the mass scans, and the full harden. It
// is separate from benchSoC so the smoke test can drive a scaled-down
// stamped design through the identical pipeline.
func benchSoCPipeline(d *benchdesigns.SoCDesign, sb *SoCBench) error {
	dir, err := os.MkdirTemp("", "guardbench-soc")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, d.Spec.Name+".gds")

	st, err := measureSoC(func() error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w := bufio.NewWriter(f)
		if err := gdsii.StreamLayoutTiles(w, d.Layout, nil, d.Grid()); err != nil {
			return err
		}
		return w.Flush()
	})
	if err != nil {
		return fmt.Errorf("export: %w", err)
	}
	sb.Stages["export"] = st
	if fi, err := os.Stat(path); err == nil {
		sb.GDSBytes = fi.Size()
	}

	st, err = measureSoC(func() error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		_, _, err = gdsii.StreamStats(bufio.NewReader(f))
		return err
	})
	if err != nil {
		return fmt.Errorf("import: %w", err)
	}
	sb.Stages["import"] = st

	// Best of three for the mass stages: a single 50ms run jitters badly
	// with GC timing, and the baseline must be stable enough to gate on.
	bestMass := func() (SoCStage, int) {
		best, mass := SoCStage{}, 0
		for i := 0; i < 3; i++ {
			runtime.GC() // don't bill one iteration for another's garbage
			st, _ := measureSoC(func() error {
				mass = core.ExploitableFreeMass(d.Layout, socThreshER)
				return nil
			})
			if i == 0 || st.Seconds < best.Seconds {
				best = st
			}
		}
		return best, mass
	}
	core.SetOperatorBandWorkers(1)
	st, massSeq := bestMass()
	sb.Stages["mass_seq"] = st
	core.SetOperatorBandWorkers(0) // all cores
	sb.MassWorkers = core.ResolvedOperatorBandWorkers(d.Layout.NumRows)
	st, massBand := bestMass()
	sb.Stages["mass_band"] = st
	if massSeq != massBand {
		return fmt.Errorf("band-parallel mass %d != sequential %d", massBand, massSeq)
	}
	if band := sb.Stages["mass_band"].Seconds; band > 0 {
		sb.MassSpeedup = sb.Stages["mass_seq"].Seconds / band
	}

	// Full harden: baseline route + levelized STA over the whole design
	// (EvalBaseline builds the timing graph every later analysis reuses),
	// then a tile-local ECO evaluated strictly as a delta against it.
	var base *core.Baseline
	st, err = measureSoC(func() error {
		var err error
		base, err = core.EvalBaseline(d.Layout, core.FlowConfig{
			Constraints: d.Cons,
			Activity:    d.Spec.Tile.Activity,
			Seed:        1,
		})
		return err
	})
	if err != nil {
		return fmt.Errorf("harden baseline: %w", err)
	}
	sb.Stages["harden_baseline"] = st

	st, err = measureSoC(func() error { return socTileECO(d, base, sb) })
	if err != nil {
		return fmt.Errorf("harden eco: %w", err)
	}
	sb.Stages["harden_eco"] = st
	return nil
}

// socECOMoves bounds how many cells the tile-local ECO relocates. Small on
// purpose: the stage exists to show that a bounded local change costs a
// bounded re-analysis, independent of design size.
const socECOMoves = 48

// socECOMaxFanout is the largest net fanout a relocated cell may touch;
// cells on wider nets (clock trees) stay put so the change region stays
// tile-sized.
const socECOMaxFanout = 64

// socTileECO applies a tile-local ECO to a clone of the hardened baseline's
// layout — relocating up to socECOMoves movable cells inside one mid-die
// logic tile — and evaluates it strictly through the delta path: route.Warm
// replays every untouched net from the baseline donor and sta.AnalyzeDelta
// re-propagates only the changed-net cones. Either path declining is a hard
// failure, because at SoC scale falling back to cold route + whole-graph
// STA is exactly the regression this benchmark exists to catch.
func socTileECO(d *benchdesigns.SoCDesign, base *core.Baseline, sb *SoCBench) error {
	l := base.Layout.Clone()
	prefix := fmt.Sprintf("t%02d_%02d/", d.Spec.TilesY/2, d.Spec.TilesX/2)
	dirty := make([]bool, len(l.Netlist.Nets))
	moved := 0
	for _, in := range l.Netlist.Insts {
		if moved >= socECOMoves {
			break
		}
		if in.Fixed || !strings.HasPrefix(in.Name, prefix) {
			continue
		}
		// Keep off die-spanning nets (clock trees): a moved terminal on one
		// dirties the whole net, and its rerouted old+new segments would
		// grow the warm router's change region to the full die — promoting
		// every net that crosses it and defeating the tile-local replay.
		huge := false
		for _, c := range in.Conns {
			if c.Net.NumTerms() > socECOMaxFanout {
				huge = true
				break
			}
		}
		if huge {
			continue
		}
		from := l.PlacementOf(in)
		if !from.Placed {
			continue
		}
		// Relocate to the nearest free run within two rows: ECO operators
		// move cells locally, which is what keeps the change region small.
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
			return fmt.Errorf("re-place %s: %w", in.Name, err)
		}
		for _, c := range in.Conns {
			dirty[c.Net.ID] = true
		}
		moved++
	}
	if moved == 0 {
		return fmt.Errorf("no movable cells in tile %s", prefix)
	}

	geo := route.BuildGeometry(l)
	wres, wst, err := route.Warm(l, base.Config.RouteOpts, geo, base.Routes, dirty)
	if err != nil {
		return fmt.Errorf("warm route: %w", err)
	}
	if wres == nil {
		return fmt.Errorf("warm route declined (%s): baseline is not a zero-victim donor", wst.Decline)
	}
	tres, tds, err := sta.AnalyzeDelta(l,
		sta.Options{Constraints: base.Config.Constraints, Routes: wres},
		base.Timing, wst.ChangedNets)
	if err != nil {
		return fmt.Errorf("delta STA: %w", err)
	}
	if tres == nil {
		return fmt.Errorf("delta STA declined: baseline timing carries no reusable graph")
	}
	sb.HardenDelta = &ECODelta{
		NetsReplayed:   wst.Replayed,
		NetsRerouted:   wst.Rerouted,
		NetsPromoted:   wst.Promoted,
		StaChangedNets: tds.ChangedNets,
		StaConeInsts:   tds.ConeInsts,
		StaConeNets:    tds.ConeNets,
	}
	return nil
}

// fmtBytes renders a byte count human-readably for the progress line.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
