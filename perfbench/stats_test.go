package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTailKeepsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		return xs
	}
	if _, _, ok := tail(seq(10)); ok {
		t.Fatal("10 samples cannot have a tail with 10 beyond it")
	}
	cases := []struct {
		n         int
		value     float64
		pct       float64
		remaining int
	}{
		{11, 1, 100.0 / 11, 10},
		{20, 10, 50, 10},
		{40, 30, 75, 10},
		{1000, 990, 99, 10},
	}
	for _, c := range cases {
		v, pct, ok := tail(seq(c.n))
		if !ok || !near(v, c.value) || !near(pct, c.pct) {
			t.Errorf("tail(n=%d) = %v p%v ok=%v, want %v p%v", c.n, v, pct, ok, c.value, c.pct)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond != c.remaining {
			t.Errorf("tail(n=%d): %d samples beyond, want %d", c.n, beyond, c.remaining)
		}
	}
}

func TestHypervolume(t *testing.T) {
	ref := point2{X: 4, Y: 4}
	cases := []struct {
		name string
		pts  []point2
		want float64
	}{
		{"empty", nil, 0},
		{"one point", []point2{{1, 1}}, 9},
		// Two non-dominated points: 3·1 + 2·2 (union of their boxes).
		{"staircase", []point2{{1, 3}, {2, 1}}, 3*1 + 2*2},
		{"dominated point ignored", []point2{{1, 1}, {2, 2}}, 9},
		{"outside reference ignored", []point2{{1, 1}, {5, 0}, {0, 4}}, 9},
		{"order independent", []point2{{2, 1}, {1, 3}}, 7},
	}
	for _, c := range cases {
		if got := hypervolume(c.pts, ref); !near(got, c.want) {
			t.Errorf("%s: hypervolume = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSelfTimesAddUpToUnit(t *testing.T) {
	spans := []Span{
		{ID: 1, Unit: 1, Name: "unit", Start: 0, End: 10},
		{ID: 2, Parent: 1, Unit: 1, Name: "a", Start: 1, End: 4},
		{ID: 3, Parent: 2, Unit: 1, Name: "a.leaf", Start: 2, End: 3},
		{ID: 4, Parent: 1, Unit: 1, Name: "b", Start: 5, End: 9},
		{ID: 5, Unit: 2, Name: "other", Start: 20, End: 21},
	}
	got, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"unit": 3, "a": 2, "a.leaf": 1, "b": 4, "other": 1}
	total := 0.0
	for _, s := range got {
		if !near(s.Self, want[s.Name]) {
			t.Errorf("%s self = %v, want %v", s.Name, s.Self, want[s.Name])
		}
		if s.Unit == 1 {
			total += s.Self
		}
	}
	if !near(total, 10) {
		t.Errorf("unit 1 self times sum to %v, want 10", total)
	}
}

func TestSelfTimesRejectOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Unit: 1, Name: "unit", Start: 0, End: 10},
		{ID: 2, Parent: 1, Unit: 1, Name: "a", Start: 1, End: 6},
		{ID: 3, Parent: 1, Unit: 1, Name: "b", Start: 5, End: 9},
	}
	if _, err := selfTimes(spans); err == nil {
		t.Fatal("overlapping sibling spans must not add up to the unit")
	}
	if _, err := selfTimes([]Span{{ID: 1, Parent: 7, Name: "orphan"}}); err == nil {
		t.Fatal("a span with an unknown parent must be rejected")
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer()
	unit := tr.Unit()
	root := tr.Open(unit, 0, "unit")
	tr.Time(unit, root, "child", func() { time.Sleep(2 * time.Millisecond) })
	tr.Close(root)
	spans, err := tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Dur() <= 0 {
		t.Fatalf("spans = %+v", spans)
	}
	var nilTracer *Tracer
	if id := nilTracer.Open(nilTracer.Unit(), 0, "x"); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	nilTracer.Close(0)
}

// TestBenchmarkFileMatchesMetrics keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(names) != len(workloads) {
		sort.Strings(names)
		t.Errorf("BENCHMARK.json workloads %v, program has %d", names, len(workloads))
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit || m.Better != endToEnd[i].Better {
			t.Errorf("end_to_end[%d] = %s %s %s, program %+v", i, m.Name, m.Unit, m.Better, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, program %+v", i, m, perLayer[i])
		}
	}
}

func TestCompareRefusesDifferentConfigs(t *testing.T) {
	var bench benchmarkFile
	if err := json.Unmarshal([]byte(`{"end_to_end": [
		{"name": "unit_p50_s", "unit": "s", "better": "lower", "bound": 0.1},
		{"name": "evals_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}`), &bench); err != nil {
		t.Fatal(err)
	}
	rec := func(cfg config, p50, rate float64) []*report {
		return []*report{{Workload: "w", Config: cfg, Metrics: map[string]metric{
			"unit_p50_s": {p50, "s"}, "evals_per_s": {rate, "1/s"},
		}}}
	}
	pinned := config{NProc: 2, RouteSetting: 1}
	auto := config{NProc: 2, RouteSetting: 0}
	cases := []struct {
		name     string
		old, cur []*report
		want     int
	}{
		{"same", rec(pinned, 1, 10), rec(pinned, 1.05, 9.5), 0},
		{"slower", rec(pinned, 1, 10), rec(pinned, 1.2, 10), 3},
		{"lower rate", rec(pinned, 1, 10), rec(pinned, 1, 8), 3},
		{"config differs", rec(pinned, 1, 10), rec(auto, 1, 10), 4},
		{"zero old median", rec(pinned, 0, 10), rec(pinned, 1, 10), 2},
		{"zero new rate", rec(pinned, 1, 10), rec(pinned, 1, 0), 2},
		{"NaN median", rec(pinned, math.NaN(), 10), rec(pinned, 1, 10), 2},
	}
	for _, c := range cases {
		got := compareSets(bench, map[string][]*report{"w": c.old}, map[string][]*report{"w": c.cur})
		if got != c.want {
			t.Errorf("%s: compare exit %d, want %d", c.name, got, c.want)
		}
	}
}
