package core

import (
	"math/rand"
	"testing"

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

// --- micro-benchmarks and their allocation gates ------------------------

// passRig is a mid-size design with a warm shift engine and an open
// journal: the operator's hot loop as the pass benchmark and its
// allocation test drive it.
type passRig struct {
	l     *layout.Layout
	e     shiftEngine
	moved map[*netlist.Instance]bool
}

func newPassRig(tb testing.TB) *passRig {
	r := &passRig{l: buildDesign(tb, 12, 10, 0.6, 5), moved: map[*netlist.Instance]bool{}}
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
	r.e.pass(r.l, 20, i%2 == 1, &res, r.moved)
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
