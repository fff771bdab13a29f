package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval around a call into a layer of the program.
// Spans of one unit share Unit; Parent is the ID of the enclosing span (0
// for a unit's root). Start and End are seconds since the tracer started.
type Span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Unit   int     `json:"unit"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// Self is the span's duration minus the part of it its children cover;
	// filled by Tracer.Finish.
	Self float64 `json:"self_s"`
}

// Dur is the span's wall duration in seconds.
func (s Span) Dur() float64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay one nil check per boundary. Safe for
// concurrent use.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
	units int
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Unit allocates a fresh unit identifier for a new root span.
func (t *Tracer) Unit() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.units++
	return t.units
}

// Add records a completed span and returns its ID (0 on a nil tracer).
func (t *Tracer) Add(unit, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Unit: unit, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
	})
	return id
}

// Open starts a span whose children are recorded before it ends; close it
// with Close. It returns the span ID (0 on a nil tracer).
func (t *Tracer) Open(unit, parent int, name string) int {
	now := time.Now()
	return t.Add(unit, parent, name, now, now)
}

// Close sets the end of an open span to now.
func (t *Tracer) Close(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Time runs fn inside a leaf span and returns its wall duration, traced or
// not.
func (t *Tracer) Time(unit, parent int, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.Add(unit, parent, name, start, end)
	return end.Sub(start)
}

// Finish computes every span's self time and checks that, within each
// unit, the self times add up to the root span's duration. It returns the
// spans sorted by ID.
func (t *Tracer) Finish() ([]Span, error) {
	if t == nil {
		return nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return selfTimes(t.spans)
}

// selfTimes fills Self for every span: its duration minus the union of its
// children's intervals (clipped to the span). Within each root's subtree
// the self times must sum to the root's duration; a child that overlaps a
// sibling or sticks out of its parent breaks that and is reported.
func selfTimes(spans []Span) ([]Span, error) {
	out := append([]Span(nil), spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	index := make(map[int]int, len(out))
	children := make(map[int][]int)
	for i, s := range out {
		index[s.ID] = i
	}
	for i, s := range out {
		if s.Parent != 0 {
			if _, ok := index[s.Parent]; !ok {
				return nil, fmt.Errorf("span %d (%s): unknown parent %d", s.ID, s.Name, s.Parent)
			}
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range out {
		covered := coveredLen(out[i], children[out[i].ID], out)
		out[i].Self = out[i].Dur() - covered
	}
	// Subtree sums.
	var subtreeSelf func(i int) float64
	subtreeSelf = func(i int) float64 {
		t := out[i].Self
		for _, c := range children[out[i].ID] {
			t += subtreeSelf(c)
		}
		return t
	}
	for i, s := range out {
		if s.Parent != 0 {
			continue
		}
		got := subtreeSelf(i)
		if math.Abs(got-s.Dur()) > 1e-6+1e-9*s.Dur() {
			return out, fmt.Errorf("unit %d (%s): self times sum to %.9fs, root lasts %.9fs (overlapping or escaping child spans)",
				s.Unit, s.Name, got, s.Dur())
		}
	}
	return out, nil
}

// coveredLen is the length of the union of the child intervals, clipped to
// the parent span.
func coveredLen(parent Span, kids []int, all []Span) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := math.Max(all[k].Start, parent.Start), math.Min(all[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, curA, curB := 0.0, 0.0, -1.0
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// durations returns the durations of every span with the given name.
func durations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.Dur())
		}
	}
	return out
}

// writeSpans stores the spans as JSON under dir, creating it if needed.
func writeSpans(dir, file string, spans []Span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	blob, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, blob, 0o644)
}
