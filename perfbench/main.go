// Command perfbench is the repository's performance benchmark. It runs one
// workload per invocation — explore, soc_eco or service — measures it for a
// fixed window, checks that the program's outputs are correct, and prints
// one JSON result object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}, ...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; a traced run
// (-trace 1) records spans around the benchmark's own calls into each layer
// and reports the per-layer metrics instead. See README.md for the
// workloads, every metric and the layer → metric → workload map.
//
// Usage:
//
//	perfbench --workload explore|soc_eco|service --seed N --seconds S --trace 0|1
//	perfbench compare DIR_A DIR_B
//
// Normally run through run.py, which builds it into .bench_build/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is the configuration a result was measured under. Results whose
// configurations differ are not compared (see compare.go).
type config struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// *Setting are the process-wide worker settings (0 = the shipped
	// default, GOMAXPROCS); *Workers what each parallel stage resolves to
	// on the workload's main design.
	RouteSetting int `json:"route_setting"`
	STASetting   int `json:"sta_setting"`
	BandSetting  int `json:"band_setting"`
	RouteWorkers int `json:"route_workers"`
	STAWorkers   int `json:"sta_workers"`
	BandWorkers  int `json:"band_workers"`
	// Parallelism is the explore evaluation concurrency; ManagerWorkers and
	// Clients size the service workload.
	Parallelism    int `json:"parallelism,omitempty"`
	ManagerWorkers int `json:"manager_workers,omitempty"`
	Clients        int `json:"clients,omitempty"`
}

func machineConfig() config {
	return config{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// report is everything one run measured; it is written to the result
// directory and summarized on standard output.
type report struct {
	Workload     string        `json:"workload"`
	Seed         int64         `json:"seed"`
	Seconds      int           `json:"seconds"`
	Trace        bool          `json:"trace"`
	Config       config        `json:"config"`
	Fingerprints []fingerprint `json:"fingerprints"`
	// Setups are the set-up samples, Units the untimed-tracing unit wall
	// times and UnitsTraced those measured with spans recorded.
	Setups      []float64 `json:"setup_s"`
	Units       []float64 `json:"unit_s"`
	UnitsTraced []float64 `json:"unit_traced_s,omitempty"`
	// Evals counts completed evaluations; Attempted and Failed count units
	// (explore: evaluations) tried and failed.
	Evals     int    `json:"evals"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Window    window `json:"window"`
	// Layer holds the per-layer metrics of a traced run.
	Layer    map[string]float64 `json:"per_layer,omitempty"`
	Failures []string           `json:"check_failures,omitempty"`
	Metrics  map[string]metric  `json:"metrics"`
	SpanFile string             `json:"span_file,omitempty"`
	TailS    float64            `json:"unit_tail_s,omitempty"`
	TailPct  float64            `json:"unit_tail_pct,omitempty"`
}

// window is the timed part of a run in exported form.
type window struct {
	WallS  float64 `json:"wall_s"`
	CPUS   float64 `json:"cpu_s"`
	AllocB uint64  `json:"alloc_bytes"`
}

func (r *report) duration() time.Duration { return time.Duration(r.Seconds) * time.Second }

// units converts the run length into a fixed amount of work at a nominal
// unitSeconds per unit (at least one). Workloads whose units differ in cost
// or leave state behind (explore's seed ring, service's job blocks, whose
// results the manager retains) size their work this way instead of by the
// clock, so every run of a configuration does the same work and a faster
// program finishes sooner rather than doing more.
func (r *report) units(unitSeconds int) int { return max(1, r.Seconds/unitSeconds) }

// fail records a failed output check; any failure makes the run incorrect.
func (r *report) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.Failures = append(r.Failures, msg)
	progress("CHECK FAILED: %s", msg)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ Name, Unit, Better string }

// endToEnd are the metrics of untraced runs, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"unit_p50_s", "s", "lower"},
	{"evals_per_s", "1/s", "higher"},
	{"cpu_s_per_eval", "s", "lower"},
	{"alloc_mb_per_eval", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of traced runs, in BENCHMARK.json order. Every
// traced run prints all of them; one a workload does not exercise reads 0
// (README.md lists which workload measures which).
var perLayer = []metricDef{
	{"benchdesigns.build_s", "s", "lower"},
	{"core.baseline_s", "s", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"unit.tail_s", "s", "lower"},
	{"unit.tail_pct", "%", "higher"},
	{"core.eval_s", "s", "lower"},
	{"core.eval_oprun_s", "s", "lower"},
	{"core.eval_reuse_s", "s", "lower"},
	{"core.op_reuse_ratio", "ratio", "higher"},
	{"route.route_s", "s", "lower"},
	{"sta.analyze_s", "s", "lower"},
	{"power.analyze_s", "s", "lower"},
	{"security.assess_s", "s", "lower"},
	{"drc.check_s", "s", "lower"},
	{"route.nets_rerouted_per_eval", "count", "lower"},
	{"route.warm_ratio", "ratio", "higher"},
	{"nsga2.self_s", "s", "lower"},
	{"nsga2.generation_s", "s", "lower"},
	{"nsga2.front_hv", "area", "higher"},
	{"nsga2.front_size", "count", "higher"},
	{"layout.clone_s", "s", "lower"},
	{"route.geometry_s", "s", "lower"},
	{"route.warm_s", "s", "lower"},
	{"sta.delta_s", "s", "lower"},
	{"route.nets_replayed", "count", "higher"},
	{"route.nets_rerouted", "count", "lower"},
	{"sta.cone_insts", "count", "lower"},
	{"sta.level_speedup", "ratio", "higher"},
	{"core.band_speedup", "ratio", "higher"},
	{"benchdesigns.soc_net_orders", "count", "lower"},
	{"service.queue_wait_s", "s", "lower"},
	{"service.run_s", "s", "lower"},
	{"gdsii.export_s", "s", "lower"},
	{"attack.attempt_s", "s", "lower"},
	{"route.wave_speedup", "ratio", "higher"},
}

// spanMetrics are the leaf spans whose median duration is reported as
// "<name>_s" when a traced run recorded them.
var spanMetrics = []string{
	"benchdesigns.build", "core.baseline", "core.eval", "route.route", "sta.analyze",
	"power.analyze", "security.assess", "drc.check", "nsga2.generation",
	"layout.clone", "route.geometry", "route.warm", "sta.delta",
}

// workloads maps each workload name to its run function.
var workloads = map[string]func(r *report, t *Tracer) error{
	"explore": func(r *report, t *Tracer) error {
		if t != nil {
			return traceExplore(exploreDefault, r, t)
		}
		return runExplore(exploreDefault, r)
	},
	"soc_eco": func(r *report, t *Tracer) error {
		spec, err := socDefault()
		if err != nil {
			return err
		}
		return runSoC(spec, r, t)
	},
	"service": func(r *report, t *Tracer) error {
		return runService(serviceDefault, r, t)
	},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: explore, soc_eco or service")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	_ = fs.Parse(os.Args[1:])
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload explore|soc_eco|service --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	r, err := execute(*name, run, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if dir := os.Getenv("PERFBENCH_OUT"); dir != "" {
		if err := writeReport(dir, r); err != nil {
			progress("writing result record: %v", err)
		}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.Failures) == 0, r.Attempted, r.Failed, r.Metrics}
	blob, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(blob))
	if !out.Correct {
		os.Exit(1)
	}
}

// execute runs one workload and derives its metrics.
func execute(name string, run func(*report, *Tracer) error, seed int64, seconds int, traced bool) (*report, error) {
	r := &report{Workload: name, Seed: seed, Seconds: seconds, Trace: traced, Layer: map[string]float64{}}
	var t *Tracer
	if traced {
		t = newTracer()
	}
	if err := run(r, t); err != nil {
		return nil, err
	}
	if r.Evals == 0 || r.Attempted == 0 || len(r.Units)+len(r.UnitsTraced) == 0 {
		return nil, fmt.Errorf("no unit completed")
	}
	for _, fp := range r.Fingerprints {
		progress("input %s", fp)
	}
	progress("config %+v", r.Config)
	all := append(append([]float64(nil), r.Units...), r.UnitsTraced...)
	if v, pct, ok := tail(all); ok {
		r.TailS, r.TailPct = v, pct
		progress("unit tail p%.1f = %.4fs over %d units", pct, v, len(all))
	} else {
		progress("%d units: too few for a tail with %d beyond it", len(all), tailBeyond)
	}
	if traced {
		spans, err := t.Finish()
		if err != nil {
			r.fail("trace: %v", err)
		}
		for _, n := range spanMetrics {
			if d := durations(spans, n); len(d) > 0 {
				r.Layer[n+"_s"] = median(d)
			}
		}
		if len(r.Units) > 0 && len(r.UnitsTraced) > 0 {
			r.Layer["trace.overhead_frac"] = median(r.UnitsTraced)/median(r.Units) - 1
		}
		r.Layer["unit.tail_s"], r.Layer["unit.tail_pct"] = r.TailS, r.TailPct
		if out := os.Getenv("PERFBENCH_OUT"); out != "" {
			dir := filepath.Join(out, "traces")
			if path, err := writeSpans(dir, fmt.Sprintf("%s-seed%d.json", name, seed), spans); err != nil {
				progress("writing spans: %v", err)
			} else {
				r.SpanFile = path
				progress("%d spans written to %s", len(spans), path)
			}
		}
		r.Metrics = map[string]metric{}
		for _, d := range perLayer {
			r.Metrics[d.Name] = metric{Value: r.Layer[d.Name], Unit: d.Unit}
		}
		return r, nil
	}
	w := r.Window
	evals := float64(r.Evals)
	r.Metrics = map[string]metric{
		"setup_s":           {median(r.Setups), "s"},
		"unit_p50_s":        {median(r.Units), "s"},
		"evals_per_s":       {evals / w.WallS, "1/s"},
		"cpu_s_per_eval":    {w.CPUS / evals, "s"},
		"alloc_mb_per_eval": {float64(w.AllocB) / 1e6 / evals, "MB"},
		"peak_rss_mb":       {peakRSSMB(), "MB"},
	}
	for _, d := range endToEnd {
		progress("%-18s %12.6f %s", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	return r, nil
}

func writeReport(dir string, r *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	file := fmt.Sprintf("%s-seed%d-trace%v-%d.json", r.Workload, r.Seed, r.Trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, file), blob, 0o644)
}
