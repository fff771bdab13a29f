// Package obs is the flow-wide observability substrate: a small,
// dependency-free metrics registry (counters, gauges with high-watermark
// tracking, and latency histograms), Prometheus text-format exposition,
// duration timers, and structured logging via log/slog.
//
// Instrumented packages register their metrics against the package-level
// Default registry at init time and record into them on the hot path; the
// registry is exposed by cmd/guardd at GET /metrics. Registration is
// idempotent — asking for an already-registered family with the same shape
// returns the existing one — so libraries and their tests can share
// metric variables freely.
//
// All operations are safe for concurrent use. Recording into an existing
// series costs one mutex acquisition; the registry is not sharded because
// the instrumented operations (routing, STA, flow evaluations) run for
// milliseconds to seconds per observation.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefBuckets are the default latency histogram buckets in seconds,
// spanning sub-millisecond stage work to multi-minute explorations.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 120, 300,
}

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Registry holds metric families and renders them in Prometheus text
// format. The zero value is not usable; use NewRegistry or Default.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// family is one named metric with a fixed kind and label schema.
type family struct {
	name    string
	help    string
	kind    kind
	labels  []string
	buckets []float64 // histograms only

	mu     sync.Mutex
	series map[string]*series
	order  []string
}

// series is one (label values) instance of a family.
type series struct {
	mu     sync.Mutex
	values []string
	val    float64 // counter/gauge value
	peak   float64 // gauge high watermark
	counts []uint64
	sum    float64
	count  uint64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default is the process-wide registry the instrumented packages record
// into and cmd/guardd exposes at /metrics.
func Default() *Registry { return defaultRegistry }

// family registers (or fetches) a family, enforcing shape consistency.
func (r *Registry) family(name, help string, k kind, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, already %s%v",
				name, k, labels, f.kind, f.labels))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %q re-registered with labels %v, already %v",
					name, labels, f.labels))
			}
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		kind:    k,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]*series),
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

func (f *family) with(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{values: append([]string(nil), values...)}
	if f.kind == kindHistogram {
		s.counts = make([]uint64, len(f.buckets))
	}
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// CounterVec is a labeled family of monotonically increasing counters.
type CounterVec struct{ f *family }

// Counter registers (or fetches) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, nil, labels)}
}

// With returns the counter for one set of label values (created on first
// use). Call with no arguments for an unlabeled family.
func (v *CounterVec) With(values ...string) *Counter { return &Counter{v.f.with(values)} }

// Counter is one monotonically increasing series.
type Counter struct{ s *series }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (negative deltas are ignored: counters only go up).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	c.s.mu.Lock()
	c.s.val += v
	c.s.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.s.val
}

// GaugeVec is a labeled family of gauges.
type GaugeVec struct{ f *family }

// Gauge registers (or fetches) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, kindGauge, nil, labels)}
}

// With returns the gauge for one set of label values.
func (v *GaugeVec) With(values ...string) *Gauge { return &Gauge{v.f.with(values)} }

// Gauge is one series that can go up and down. It additionally tracks its
// high watermark (Peak), which worker-occupancy gauges use to make
// transient oversubscription visible after the fact.
type Gauge struct{ s *series }

// Set sets the value.
func (g *Gauge) Set(v float64) {
	g.s.mu.Lock()
	g.s.val = v
	if v > g.s.peak {
		g.s.peak = v
	}
	g.s.mu.Unlock()
}

// Add adds v (which may be negative).
func (g *Gauge) Add(v float64) {
	g.s.mu.Lock()
	g.s.val += v
	if g.s.val > g.s.peak {
		g.s.peak = g.s.val
	}
	g.s.mu.Unlock()
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// SetMax raises the value to v if it is currently lower.
func (g *Gauge) SetMax(v float64) {
	g.s.mu.Lock()
	if v > g.s.val {
		g.s.val = v
	}
	if v > g.s.peak {
		g.s.peak = v
	}
	g.s.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return g.s.val
}

// Peak returns the highest value the gauge has held since creation (or the
// last ResetPeak).
func (g *Gauge) Peak() float64 {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return g.s.peak
}

// ResetPeak resets the high watermark to the current value.
func (g *Gauge) ResetPeak() {
	g.s.mu.Lock()
	g.s.peak = g.s.val
	g.s.mu.Unlock()
}

// HistogramVec is a labeled family of cumulative histograms.
type HistogramVec struct{ f *family }

// Histogram registers (or fetches) a histogram family with the given
// upper bucket bounds (nil: DefBuckets). Bounds must be sorted ascending.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending at %d", name, i))
		}
	}
	return &HistogramVec{r.family(name, help, kindHistogram, buckets, labels)}
}

// With returns the histogram for one set of label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return &Histogram{v.f.with(values), v.f.buckets}
}

// Histogram is one cumulative-bucket latency series (values in seconds by
// convention).
type Histogram struct {
	s       *series
	buckets []float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.s.mu.Lock()
	for i, ub := range h.buckets {
		if v <= ub {
			h.s.counts[i]++
		}
	}
	h.s.sum += v
	h.s.count++
	h.s.mu.Unlock()
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.s.count
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.s.sum
}

// Timer measures one duration into a histogram.
type Timer struct {
	h     *Histogram
	start time.Time
}

// Start begins a timer recording into h when stopped.
func (h *Histogram) Start() *Timer { return &Timer{h: h, start: time.Now()} }

// Stop observes and returns the elapsed duration. Stop is single-shot;
// calling it again observes the (longer) duration again.
func (t *Timer) Stop() time.Duration {
	d := time.Since(t.start)
	t.h.Observe(d.Seconds())
	return d
}

// SeriesSnapshot is a point-in-time copy of one series, for tests and the
// benchmark harness.
type SeriesSnapshot struct {
	// Labels maps label names to values (empty for unlabeled families).
	Labels map[string]string
	// Value is the counter/gauge value (0 for histograms).
	Value float64
	// Peak is the gauge high watermark (0 otherwise).
	Peak float64
	// Sum and Count are the histogram aggregate (0 otherwise).
	Sum   float64
	Count uint64
}

// MetricSnapshot is a point-in-time copy of one family.
type MetricSnapshot struct {
	Name   string
	Help   string
	Type   string
	Series []SeriesSnapshot
}

// Snapshot copies every family and series in registration order.
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.Lock()
	order := append([]string(nil), r.order...)
	fams := make([]*family, 0, len(order))
	for _, name := range order {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	out := make([]MetricSnapshot, 0, len(fams))
	for _, f := range fams {
		ms := MetricSnapshot{Name: f.name, Help: f.help, Type: f.kind.String()}
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		srs := make([]*series, 0, len(keys))
		for _, k := range keys {
			srs = append(srs, f.series[k])
		}
		f.mu.Unlock()
		for _, s := range srs {
			s.mu.Lock()
			ss := SeriesSnapshot{
				Labels: make(map[string]string, len(f.labels)),
				Value:  s.val,
				Peak:   s.peak,
				Sum:    s.sum,
				Count:  s.count,
			}
			for i, ln := range f.labels {
				ss.Labels[ln] = s.values[i]
			}
			s.mu.Unlock()
			ms.Series = append(ms.Series, ss)
		}
		out = append(out, ms)
	}
	return out
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// labelString renders {k="v",...} for the given names/values (with an
// optional extra pair appended), or "" when empty.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraName, extraValue)
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4), families sorted by name, series in creation
// order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	r.mu.Unlock()
	sort.Strings(names)

	for _, name := range names {
		r.mu.Lock()
		f := r.families[name]
		r.mu.Unlock()
		if f == nil {
			continue
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		srs := make([]*series, 0, len(keys))
		for _, k := range keys {
			srs = append(srs, f.series[k])
		}
		f.mu.Unlock()
		for _, s := range srs {
			s.mu.Lock()
			values := append([]string(nil), s.values...)
			val, sum, count := s.val, s.sum, s.count
			counts := append([]uint64(nil), s.counts...)
			s.mu.Unlock()
			var err error
			switch f.kind {
			case kindCounter, kindGauge:
				_, err = fmt.Fprintf(w, "%s%s %g\n",
					f.name, labelString(f.labels, values, "", ""), val)
			case kindHistogram:
				for i, ub := range f.buckets {
					if _, err = fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
						labelString(f.labels, values, "le", formatBound(ub)), counts[i]); err != nil {
						return err
					}
				}
				if _, err = fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, values, "le", "+Inf"), count); err != nil {
					return err
				}
				if _, err = fmt.Fprintf(w, "%s_sum%s %g\n",
					f.name, labelString(f.labels, values, "", ""), sum); err != nil {
					return err
				}
				_, err = fmt.Fprintf(w, "%s_count%s %d\n",
					f.name, labelString(f.labels, values, "", ""), count)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func formatBound(ub float64) string { return fmt.Sprintf("%g", ub) }

// Handler serves the registry in Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
