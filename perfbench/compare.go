package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadReports reads the untraced result records in dir, by workload.
func loadReports(dir string) (map[string][]*report, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*report{}
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(blob, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return out, nil
}

// sameConfig reports whether every record was measured under one
// configuration, and the first that differs.
func sameConfig(rs []*report) (config, *report, bool) {
	for _, r := range rs[1:] {
		if !reflect.DeepEqual(r.Config, rs[0].Config) {
			return rs[0].Config, r, false
		}
	}
	return rs[0].Config, nil, true
}

// compareMain compares the medians of two sets of result records (two
// directories written by untraced runs) metric by metric against the
// bounds in BENCHMARK.json. It refuses (exit 4) when the configurations
// differ, exits 2 when a median is not a positive finite number (a broken
// record, such as a peak RSS that could not be read), exits 3 when a median
// got worse by more than its bound, and 0 otherwise.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD_DIR NEW_DIR (run from the repository root)")
		return 2
	}
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	var bench benchmarkFile
	if err := json.Unmarshal(blob, &bench); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: BENCHMARK.json: %v\n", err)
		return 2
	}
	old, err := loadReports(args[0])
	if err == nil {
		var cur map[string][]*report
		if cur, err = loadReports(args[1]); err == nil {
			return compareSets(bench, old, cur)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
	return 2
}

func compareSets(bench benchmarkFile, old, cur map[string][]*report) int {
	var names []string
	for w := range old {
		if len(cur[w]) > 0 {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench compare: no workload has records on both sides")
		return 2
	}
	code := 0
	for _, w := range names {
		both := append(append([]*report(nil), old[w]...), cur[w]...)
		if c, odd, ok := sameConfig(both); !ok {
			fmt.Printf("%s: REFUSED: configuration %+v != %+v (seed %d)\n", w, c, odd.Config, odd.Seed)
			return 4
		}
		fmt.Printf("%s (%d old, %d new runs)\n", w, len(old[w]), len(cur[w]))
		for _, m := range bench.EndToEnd {
			a, b := metricMedian(old[w], m.Name), metricMedian(cur[w], m.Name)
			if !positive(a) || !positive(b) {
				fmt.Printf("%s: REFUSED: %s median %v -> %v is not a positive finite number\n", w, m.Name, a, b)
				return 2
			}
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict, code = "REGRESSION", 3
			}
			fmt.Printf("  %-18s %12.6f -> %12.6f %-4s worse by %+6.1f%% (bound %.0f%%) %s\n",
				m.Name, a, b, m.Unit, 100*worse, 100*m.Bound, verdict)
		}
	}
	return code
}

func positive(x float64) bool {
	return x > 0 && !math.IsInf(x, 0)
}

func metricMedian(rs []*report, name string) float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, r.Metrics[name].Value)
	}
	return median(xs)
}
