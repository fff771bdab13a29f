// Command guardbench runs built-in benchmark designs through the three
// core operations — baseline evaluation, a default-parameter hardening
// pass, and a short NSGA-II exploration — and writes the measured
// latencies to a machine-readable JSON file (default BENCH_baseline.json).
// Per-design end-to-end wall times come from direct measurement; the
// per-stage breakdown (route, timing, power, security, drc) is read from
// the flow's own gdsiiguard_flow_stage_seconds histogram, so the report
// and the /metrics endpoint of guardd can never disagree about what was
// measured.
//
// Usage:
//
//	guardbench [-designs PRESENT,openMSP430_1] [-short] [-pop 8] [-gens 3]
//	           [-seed 1] [-out BENCH_baseline.json]
//	           [-compare old.json] [-tolerance 0.25]
//	           [-sta-workers N]
//
// -short shrinks the exploration (pop 6, 2 generations) for CI smoke runs.
// -compare diffs the fresh report against a previously written one: every
// per-phase wall time and per-stage mean latency is printed with its
// percentage delta, and the process exits 3 when any of them is more than
// -tolerance (fractional) slower than before. Reports record the per-stage
// worker counts they were measured under; when those differ between the
// two reports (different machine, different -sta-workers),
// -compare still prints the deltas but warns and refuses to flag latency
// regressions — the numbers are not comparable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"gdsiiguard"
	"gdsiiguard/internal/core"
	"gdsiiguard/internal/obs"
	"gdsiiguard/internal/sta"
)

// StageLatency is the aggregated latency of one flow stage over a phase.
type StageLatency struct {
	Count       uint64  `json:"count"`
	TotalSecs   float64 `json:"total_seconds"`
	MeanSeconds float64 `json:"mean_seconds"`
}

// DesignBench is the measured result for one design.
type DesignBench struct {
	Design          string                  `json:"design"`
	BaselineSeconds float64                 `json:"baseline_seconds"`
	HardenSeconds   float64                 `json:"harden_seconds"`
	ExploreSeconds  float64                 `json:"explore_seconds"`
	TotalSeconds    float64                 `json:"total_seconds"`
	Evaluations     int                     `json:"explore_evaluations"`
	FrontSize       int                     `json:"explore_front_size"`
	Stages          map[string]StageLatency `json:"stages"`
	// Delta reports what the exploration's cross-chromosome delta
	// evaluation reused: operator stage skips (memo/arena hits), LDA
	// iteration extensions and routed-net counts. Informational — compare
	// never flags these as regressions.
	Delta gdsiiguard.DeltaStats `json:"delta"`
}

// WorkersReport records the parallelism the run resolved to, stage by
// stage: the level-parallel STA engine and the band-parallel operator mass
// scans (routing is sequential). Each count is what the stage would use on
// a large input on this machine under the run's -sta-workers setting (1
// means the stage degenerated to its sequential path). Wall times measured
// under different worker counts are not comparable, so -compare warns and
// refuses to gate latencies when these differ between reports.
type WorkersReport struct {
	NumCPU int `json:"num_cpu"`
	STA    int `json:"sta"`
	Band   int `json:"band"`
}

// resolvedWorkers snapshots the per-stage worker counts for the report,
// resolved at an input size large enough that only the setting and the
// machine's core count bind.
func resolvedWorkers() *WorkersReport {
	const large = 1 << 20
	return &WorkersReport{
		NumCPU: runtime.NumCPU(),
		STA:    sta.ResolvedWorkers(large),
		Band:   core.ResolvedOperatorBandWorkers(large),
	}
}

// Report is the full benchmark output.
type Report struct {
	GeneratedBy string `json:"generated_by"`
	Timestamp   string `json:"timestamp"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	Short       bool   `json:"short"`
	PopSize     int    `json:"pop_size"`
	Generations int    `json:"generations"`
	Seed        int64  `json:"seed"`
	// Workers is the per-stage parallelism this report was measured under;
	// -compare refuses to gate latency deltas between reports whose worker
	// configurations differ.
	Workers *WorkersReport `json:"workers,omitempty"`
	Designs []DesignBench  `json:"designs"`
	// SoC holds the SoC-scale streaming-pipeline results: wall time AND
	// allocation volume per stage, so -compare gates memory regressions in
	// the streaming paths, not just latency. Skipped under -short.
	SoC          []SoCBench `json:"soc,omitempty"`
	SuiteSeconds float64    `json:"suite_seconds"`
}

func main() {
	var (
		designs = flag.String("designs", "PRESENT,openMSP430_1", "comma-separated benchmark designs")
		short   = flag.Bool("short", false, "shrink the exploration for smoke runs")
		pop     = flag.Int("pop", 8, "exploration population size")
		gens    = flag.Int("gens", 3, "exploration generations")
		seed    = flag.Int64("seed", 1, "exploration seed")
		soc     = flag.String("soc", "SoC_100k", "comma-separated SoC-scale designs for the streaming pipeline bench (skipped with -short; empty disables)")
		out     = flag.String("out", "BENCH_baseline.json", "output JSON path")
		compare = flag.String("compare", "", "old report JSON to diff against; exit 3 on regression")
		tol     = flag.Float64("tolerance", 0.25, "fractional slowdown allowed before -compare reports a regression")

		staWorkers = flag.Int("sta-workers", 0, "level-parallel STA workers (0: GOMAXPROCS, 1: sequential)")
	)
	flag.Parse()
	sta.SetWorkers(*staWorkers)
	if *short {
		*pop, *gens = 6, 2
	}
	names := strings.Split(*designs, ",")
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "guardbench: no designs")
		os.Exit(2)
	}

	rep := Report{
		GeneratedBy: "guardbench",
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Short:       *short,
		PopSize:     *pop,
		Generations: *gens,
		Seed:        *seed,
		Workers:     resolvedWorkers(),
	}
	t0 := time.Now()
	for _, name := range names {
		name = strings.TrimSpace(name)
		db, err := benchDesign(name, *pop, *gens, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "guardbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		rep.Designs = append(rep.Designs, *db)
		fmt.Printf("%-16s baseline %6.2fs  harden %6.2fs  explore %7.2fs (%d evals, front %d, op reuse %d)\n",
			name, db.BaselineSeconds, db.HardenSeconds, db.ExploreSeconds,
			db.Evaluations, db.FrontSize,
			db.Delta.OpMemoHits+db.Delta.OpArenaHits)
	}
	if *soc != "" && !*short {
		for _, name := range strings.Split(*soc, ",") {
			name = strings.TrimSpace(name)
			sb, err := benchSoC(name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "guardbench: soc %s: %v\n", name, err)
				os.Exit(1)
			}
			rep.SoC = append(rep.SoC, *sb)
			fmt.Printf("%-16s %d cells  generate %5.2fs  export %5.2fs (%s)  import %5.2fs  mass x%.1f (%d workers)  harden %6.2fs+%5.2fs (delta STA cones %d insts)\n",
				name, sb.Cells, sb.Stages["generate"].Seconds,
				sb.Stages["export"].Seconds, fmtBytes(sb.GDSBytes),
				sb.Stages["import"].Seconds, sb.MassSpeedup, sb.MassWorkers,
				sb.Stages["harden_baseline"].Seconds, sb.Stages["harden_eco"].Seconds,
				sb.HardenDelta.StaConeInsts)
		}
	}
	rep.SuiteSeconds = time.Since(t0).Seconds()

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "guardbench:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "guardbench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d designs, %.1fs)\n", *out, len(rep.Designs), rep.SuiteSeconds)

	if *compare != "" {
		old, err := loadReport(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "guardbench: -compare:", err)
			os.Exit(1)
		}
		diff, regressed := compareReports(old, &rep, *tol)
		fmt.Print(diff)
		if regressed {
			fmt.Fprintf(os.Stderr, "guardbench: performance regression beyond %.0f%% tolerance vs %s\n",
				*tol*100, *compare)
			os.Exit(3)
		}
		if msg := workersMismatch(old, &rep); msg != "" {
			fmt.Fprintf(os.Stderr, "guardbench: -compare: %s; latency gating refused\n", msg)
		} else {
			fmt.Printf("no regression beyond %.0f%% tolerance vs %s\n", *tol*100, *compare)
		}
	}
}

// benchDesign measures one design's baseline, harden and explore phases.
func benchDesign(name string, pop, gens int, seed int64) (*DesignBench, error) {
	before := stageTotals()
	t0 := time.Now()
	d, err := gdsiiguard.LoadBenchmark(name)
	if err != nil {
		return nil, err
	}
	db := &DesignBench{Design: name, BaselineSeconds: time.Since(t0).Seconds()}

	t1 := time.Now()
	if _, err := d.Harden(nil); err != nil {
		return nil, fmt.Errorf("harden: %w", err)
	}
	db.HardenSeconds = time.Since(t1).Seconds()

	t2 := time.Now()
	ex, err := d.Explore(gdsiiguard.ExploreOptions{PopSize: pop, Generations: gens, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	db.ExploreSeconds = time.Since(t2).Seconds()
	db.Evaluations = ex.Evaluations
	db.FrontSize = len(ex.Front)
	db.Delta = ex.Delta
	db.TotalSeconds = time.Since(t0).Seconds()
	db.Stages = stageDelta(before, stageTotals())
	return db, nil
}

// stageTotals reads the per-stage flow histogram from the process registry.
func stageTotals() map[string]StageLatency {
	out := map[string]StageLatency{}
	for _, fam := range obs.Default().Snapshot() {
		if fam.Name != "gdsiiguard_flow_stage_seconds" {
			continue
		}
		for _, s := range fam.Series {
			out[s.Labels["stage"]] = StageLatency{Count: s.Count, TotalSecs: s.Sum}
		}
	}
	return out
}

// stageDelta subtracts two stageTotals snapshots and fills per-stage means.
func stageDelta(before, after map[string]StageLatency) map[string]StageLatency {
	out := map[string]StageLatency{}
	for stage, b := range after {
		d := StageLatency{Count: b.Count - before[stage].Count, TotalSecs: b.TotalSecs - before[stage].TotalSecs}
		if d.Count > 0 {
			d.MeanSeconds = d.TotalSecs / float64(d.Count)
			out[stage] = d
		}
	}
	return out
}
