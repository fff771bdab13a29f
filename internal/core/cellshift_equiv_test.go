package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"gdsiiguard/internal/benchdesigns"
	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/netlist"
)

// randomRows generates rows of random non-overlapping ascending free runs
// over a width-W row, mimicking arbitrary occupancy patterns.
func randomRows(rng *rand.Rand, nRows, width int) [][]freeRun {
	rows := make([][]freeRun, nRows)
	for r := range rows {
		site := rng.Intn(4)
		for site < width {
			length := 1 + rng.Intn(10)
			if site+length > width {
				length = width - site
			}
			if rng.Intn(3) > 0 { // 2/3 of segments are free runs
				rows[r] = append(rows[r], freeRun{site, length})
			}
			site += length + 1 + rng.Intn(6)
		}
	}
	return rows
}

// TestBelowIndexIncrementalMatchesScratch is the property test of the
// tentpole: extending the persistent belowIndex one row at a time must be
// observationally identical to the seed's from-scratch rebuild — same
// componentWeight for every query run of a probe row, same exploitable
// mass — on randomized run layouts.
func TestBelowIndexIncrementalMatchesScratch(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		width := 40 + rng.Intn(160)
		rows := randomRows(rng, 3+rng.Intn(12), width)

		var ix belowIndex
		ix.reset()
		for i, row := range rows {
			buf := ix.nextTopBuf()
			buf = append(buf, row...)
			ix.extend(buf)

			ref := refBuildBelowIndex(rows[:i+1])

			// Exploitable mass at several thresholds.
			for _, thresh := range []int{1, 5, 20, 50} {
				want := 0
				for _, w := range ref.weight {
					if w >= thresh {
						want += w
					}
				}
				if got := ix.mass(thresh); got != want {
					t.Fatalf("seed %d rows %d thresh %d: mass = %d, want %d", seed, i+1, thresh, got, want)
				}
			}

			// componentWeight for every run of a random probe row.
			probe := randomRows(rng, 1, width)[0]
			for j := range probe {
				want := ref.componentWeight(probe, j)
				if got := ix.componentWeight(probe, j); got != want {
					t.Fatalf("seed %d rows %d run %d: componentWeight = %d, want %d (probe %v)",
						seed, i+1, j, got, want, probe)
				}
			}
		}
	}
}

// TestReachesMatchesComponentWeight: the early-exit threshold test must
// decide exactly as the full component weight does, for every run of
// every probe row, at thresholds from every run reaching to none. The
// randomized layouts are those of TestBelowIndexIncrementalMatchesScratch;
// the hand-built rows pin the cases the lower bound gets wrong first: a
// root reached through several top runs (counted twice, the bound
// overshoots), a run touching no top run, and empty rows.
func TestReachesMatchesComponentWeight(t *testing.T) {
	thresholds := []int{1, 2, 20, 64, 1 << 30}
	check := func(label string, ix *belowIndex, probe []freeRun, thresholds []int) {
		t.Helper()
		for j := range probe {
			w := ix.componentWeight(probe, j)
			for _, thresh := range thresholds {
				if got, want := ix.reaches(probe, j, thresh), w >= thresh; got != want {
					t.Fatalf("%s run %d thresh %d: reaches = %v, componentWeight = %d (probe %v)",
						label, j, thresh, got, w, probe)
				}
			}
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		width := 40 + rng.Intn(160)
		rows := randomRows(rng, 3+rng.Intn(12), width)
		var ix belowIndex
		ix.reset()
		for i, row := range rows {
			ix.extend(append(ix.nextTopBuf(), row...))
			probe := randomRows(rng, 1, width)[0]
			check(fmt.Sprintf("seed %d rows %d", seed, i+1), &ix, probe, thresholds)
		}
	}

	build := func(rows ...[]freeRun) *belowIndex {
		var ix belowIndex
		ix.reset()
		for _, row := range rows {
			ix.extend(append(ix.nextTopBuf(), row...))
		}
		return &ix
	}
	// Row 0's run joins row 1's two runs into one root of weight 14; v
	// spans both, so w(compo(v)) = 8 + 14 = 22, while counting the root
	// once per top run would give 36.
	shared := build([]freeRun{{0, 10}}, []freeRun{{0, 2}, {5, 2}})
	sharedProbe := []freeRun{{0, 8}, {12, 3}}
	if w := shared.componentWeight(sharedProbe, 0); w != 22 {
		t.Fatalf("shared-root rig: componentWeight = %d, want 22", w)
	}
	around := []int{1, 8, 9, 21, 22, 23, 30, 36, 37, 1 << 30}
	check("shared root", shared, sharedProbe, around)
	// v spans four top runs of three roots (6, 2 and 16, the last
	// reached twice): w = 20 + 24 = 44, and 60 with the double count.
	check("three roots", build(
		[]freeRun{{0, 4}, {10, 12}},
		[]freeRun{{1, 2}, {6, 2}, {12, 2}, {16, 2}},
	), []freeRun{{0, 20}}, []int{1, 20, 24, 25, 26, 27, 28, 40, 44, 45, 1 << 30})
	// v touches no top run: its component is v alone, however heavy the
	// components beside it.
	check("no overlap", build([]freeRun{{0, 30}}, []freeRun{{0, 5}, {20, 10}}),
		[]freeRun{{6, 10}, {20, 4}}, []int{1, 9, 10, 11, 30, 39, 40, 41, 1 << 30})
	// An empty top row, an empty index and an empty probe row.
	check("empty top row", build([]freeRun{{0, 30}}, nil), []freeRun{{0, 5}, {9, 3}}, around)
	check("empty index", build(), []freeRun{{0, 5}}, around)
	check("empty probe", shared, nil, around)
}

// TestCellShiftPlacesOncePerVertex pins the work of a pass: one placement
// (one journal record) per (cell, vertex) move however many sites the cell
// travels, while the site count, Shifts, stays the reference's. A cell is
// pulled for at most one vertex per pass (the vertex left of it, mirrored),
// so the moves are the cells whose placement the pass changed.
func TestCellShiftPlacesOncePerVertex(t *testing.T) {
	base := buildDesign(t, 12, 10, 0.6, 5)
	Preprocess(base)
	multiSite := 0
	for _, reverse := range []bool{false, true} {
		for _, thresh := range []int{10, 20, 40} {
			l := base.Clone()
			ref := l.Clone()
			var refRes CellShiftResult
			refCellShiftPass(ref, thresh, reverse, &refRes, map[*netlist.Instance]bool{})

			var e shiftEngine
			e.moved = make([]bool, len(l.Netlist.Insts))
			var res CellShiftResult
			l.BeginJournal()
			mark := l.JournalLen()
			e.pass(l, thresh, reverse, &res)
			records := l.JournalLen() - mark
			l.EndJournal()

			moves := len(layout.DiffPlacements(base, l))
			if res.Shifts != refRes.Shifts {
				t.Errorf("reverse=%v thresh=%d: Shifts = %d, reference %d", reverse, thresh, res.Shifts, refRes.Shifts)
			}
			if records != moves {
				t.Errorf("reverse=%v thresh=%d: %d journal records for %d (cell, vertex) moves (%d sites)",
					reverse, thresh, records, moves, res.Shifts)
			}
			if d := layout.DiffPlacements(ref, l); len(d) != 0 {
				t.Errorf("reverse=%v thresh=%d: %d placements differ from the reference pass", reverse, thresh, len(d))
			}
			multiSite += res.Shifts - moves
		}
	}
	if multiSite == 0 {
		t.Fatal("no cell moved more than one site: the rig cannot tell a move per vertex from a move per site")
	}
}

// --- micro-benchmarks and their allocation gates ------------------------

// passRig is a mid-size design with a warm shift engine and an open
// journal: the operator's hot loop as the pass benchmark and its
// allocation test drive it.
type passRig struct {
	l *layout.Layout
	e shiftEngine
}

func newPassRig(tb testing.TB) *passRig {
	r := &passRig{l: buildDesign(tb, 12, 10, 0.6, 5)}
	r.e.moved = make([]bool, len(r.l.Netlist.Insts))
	r.l.BeginJournal()
	tb.Cleanup(r.l.EndJournal)
	r.e.exploitableMass(r.l, 20) // warm the buffers
	return r
}

// pass runs one directional pass (right on odd i) and rolls it back
// through the journal.
func (r *passRig) pass(i int) {
	mark := r.l.JournalMark()
	var res CellShiftResult
	r.e.passAdded = r.e.passAdded[:0]
	r.e.pass(r.l, 20, i%2 == 1, &res)
	r.l.RollbackJournal(mark)
}

// TestCellShiftPassAllocatesNothing: once the engine is warm, a pass in
// either direction plus its journal rollback allocates nothing.
func TestCellShiftPassAllocatesNothing(t *testing.T) {
	r := newPassRig(t)
	r.pass(0)
	r.pass(1)
	i := 0
	if n := testing.AllocsPerRun(50, func() { r.pass(i); i++ }); n != 0 {
		t.Errorf("warm pass + rollback: %v allocs/op, want 0", n)
	}
}

// TestExploitableMassAllocatesNothing: the whole-layout mass scan on a warm
// incremental index allocates nothing.
func TestExploitableMassAllocatesNothing(t *testing.T) {
	r := newPassRig(t)
	if n := testing.AllocsPerRun(50, func() { r.e.exploitableMass(r.l, 20) }); n != 0 {
		t.Errorf("warm exploitableMass: %v allocs/op, want 0", n)
	}
}

// BenchmarkCellShiftPass measures one directional pass plus its journal
// rollback — the operator's hot loop — on a mid-size design.
// TestCellShiftPassAllocatesNothing gates its allocations.
func BenchmarkCellShiftPass(b *testing.B) {
	r := newPassRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.pass(i)
	}
}

// BenchmarkExploitableMass measures the whole-layout mass computation on
// the warm incremental index.
func BenchmarkExploitableMass(b *testing.B) {
	r := newPassRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.e.exploitableMass(r.l, 20)
	}
}

// BenchmarkCellShift measures the full operator (rounds + dicing) on a
// fresh clone per iteration, the shape RunCtx exercises.
func BenchmarkCellShift(b *testing.B) {
	l := buildDesign(b, 12, 10, 0.6, 5)
	Preprocess(l)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		work := l.Clone()
		b.StartTimer()
		CellShift(work, 20)
	}
}

// TestCellShiftPooledRunAllocs: Cell Shift engines come from a pool, so a
// run after the first starts from the buffers earlier runs grew. A second
// run on PRESENT allocates only what a fresh layout needs (its placement
// journal grows from empty), a small constant; without the pool it
// allocated about 700 times. GOMAXPROCS is 1 and the collector off while
// it measures, so the run finds the engine the previous one returned.
func TestCellShiftPooledRunAllocs(t *testing.T) {
	d, err := benchdesigns.Build("PRESENT")
	if err != nil {
		t.Fatal(err)
	}
	Preprocess(d.Layout)
	var clones [3]*layout.Layout
	for i := range clones {
		clones[i] = d.Layout.Clone()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	CellShift(clones[0], 20)
	next := 1
	allocs := testing.AllocsPerRun(1, func() {
		CellShift(clones[next], 20)
		next++
	})
	t.Logf("second Cell Shift run on PRESENT: %v allocations", allocs)
	if allocs > 16 {
		t.Errorf("second Cell Shift run on PRESENT: %v allocations, want at most 16", allocs)
	}
	e := enginePool.Get().(*shiftEngine)
	e.massTrace = new([]int)
	e.release()
	e = enginePool.Get().(*shiftEngine)
	defer enginePool.Put(e)
	if e.massTrace != nil {
		t.Error("a pooled engine keeps its mass trace")
	}
}
