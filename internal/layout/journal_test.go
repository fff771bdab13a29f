package layout

import (
	"fmt"
	"math/rand"
	"testing"

	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/opencell45"
)

// gridLayout builds a layout with n INV_X1 instances packed from the left
// of each row, leaving free space to mutate into.
func gridLayout(tb testing.TB, rows, sites, n int) *Layout {
	tb.Helper()
	lib := opencell45.MustLoad()
	nl := netlist.New("journal_t", lib)
	l, err := New(nl, rows, sites)
	if err != nil {
		tb.Fatal(err)
	}
	row, site := 0, 0
	for i := 0; i < n; i++ {
		in, err := nl.AddInstance(fmt.Sprintf("g%d", i), "INV_X1")
		if err != nil {
			tb.Fatal(err)
		}
		w := in.Master.WidthSites
		if site+w+1 > sites {
			row, site = row+1, 0
			if row >= rows {
				tb.Fatalf("gridLayout: %d cells do not fit", n)
			}
		}
		if err := l.Place(in, row, site); err != nil {
			tb.Fatal(err)
		}
		site += w + 1
	}
	return l
}

// samePlacementState compares occupancy grid and placement table directly.
func samePlacementState(tb testing.TB, got, want *Layout) {
	tb.Helper()
	got.grow()
	want.grow()
	for i := range want.occ {
		if got.occ[i] != want.occ[i] {
			tb.Fatalf("occ[%d] = %d, want %d (row %d site %d)",
				i, got.occ[i], want.occ[i], i/got.SitesPerRow, i%got.SitesPerRow)
		}
	}
	for i := range want.placements {
		if got.placements[i] != want.placements[i] {
			tb.Fatalf("placements[%d] = %+v, want %+v", i, got.placements[i], want.placements[i])
		}
	}
}

func TestJournalRollbackBitIdentical(t *testing.T) {
	l := gridLayout(t, 6, 60, 20)
	l.BeginJournal()
	defer l.EndJournal()

	snap := l.Clone()
	mark := l.JournalMark()

	insts := l.Netlist.Insts
	// A burst of shifts, relocations and unplacements.
	for i := 0; i < 10; i++ {
		_ = l.ShiftRight(insts[i])
	}
	if err := l.Place(insts[3], 5, 30); err != nil {
		t.Fatal(err)
	}
	l.Unplace(insts[7])
	_ = l.ShiftLeft(insts[12])
	if l.JournalLen() == mark {
		t.Fatal("no mutations recorded")
	}

	l.RollbackJournal(mark)
	samePlacementState(t, l, snap)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.JournalLen() != mark {
		t.Errorf("journal not truncated: %d != %d", l.JournalLen(), mark)
	}
}

// TestJournalRollbackRandomized is the property test: any seeded random
// sequence of Place/Unplace/Shift ops rolls back to a state bit-identical
// to the Clone snapshot taken at the mark, including nested marks.
func TestJournalRollbackRandomized(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := gridLayout(t, 8, 50, 30)
		l.BeginJournal()
		initial := l.Clone()

		type frame struct {
			mark int
			snap *Layout
		}
		var stack []frame
		insts := l.Netlist.Insts
		for op := 0; op < 400; op++ {
			switch k := rng.Intn(10); {
			case k < 3:
				in := insts[rng.Intn(len(insts))]
				_ = l.Place(in, rng.Intn(l.NumRows), rng.Intn(l.SitesPerRow))
			case k < 5:
				_ = l.ShiftLeft(insts[rng.Intn(len(insts))])
			case k < 7:
				_ = l.ShiftRight(insts[rng.Intn(len(insts))])
			case k == 7:
				l.Unplace(insts[rng.Intn(len(insts))])
			case k == 8 && len(stack) < 4:
				stack = append(stack, frame{mark: l.JournalMark(), snap: l.Clone()})
			default:
				if len(stack) > 0 {
					f := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					l.RollbackJournal(f.mark)
					samePlacementState(t, l, f.snap)
				}
			}
		}
		// Unwind every outstanding mark, then all the way to the start.
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			l.RollbackJournal(f.mark)
			samePlacementState(t, l, f.snap)
		}
		l.RollbackJournal(0)
		samePlacementState(t, l, initial)
		l.EndJournal()
		if err := l.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestJournalNesting(t *testing.T) {
	l := gridLayout(t, 4, 40, 8)
	l.BeginJournal()
	outer := l.JournalMark()
	_ = l.ShiftRight(l.Netlist.Insts[0])

	l.BeginJournal() // nested: must not clear the stream
	if l.JournalLen() == 0 {
		t.Fatal("nested BeginJournal cleared records")
	}
	_ = l.ShiftRight(l.Netlist.Insts[1])
	l.EndJournal() // inner end: records survive
	if l.JournalLen() != 2 {
		t.Fatalf("journal len = %d, want 2", l.JournalLen())
	}
	if !l.Journaling() {
		t.Fatal("outer journal closed by inner EndJournal")
	}

	snapBefore := l.Clone()
	l.RollbackJournal(outer)
	p0 := l.PlacementOf(l.Netlist.Insts[0])
	if p0.Site != 0 {
		t.Errorf("rollback did not restore inst 0: %+v", p0)
	}
	_ = snapBefore

	l.EndJournal()
	if l.Journaling() {
		t.Fatal("journal still open")
	}
	if l.JournalLen() != 0 {
		t.Fatal("EndJournal kept records")
	}
	// Mutations without a journal must not record.
	_ = l.ShiftRight(l.Netlist.Insts[2])
	if l.JournalLen() != 0 {
		t.Fatal("recorded without an open journal")
	}
}

func TestJournalCoversPlaceOverOwnFootprint(t *testing.T) {
	// Re-placing an instance overlapping its own old footprint is the
	// trickiest inverse: clear-new then fill-old must leave exactly the
	// old sites owned.
	l := gridLayout(t, 2, 30, 1)
	in := l.Netlist.Insts[0]
	if err := l.Place(in, 0, 10); err != nil {
		t.Fatal(err)
	}
	l.BeginJournal()
	defer l.EndJournal()
	snap := l.Clone()
	mark := l.JournalMark()
	if err := l.Place(in, 0, 11); err != nil { // overlaps old footprint
		t.Fatal(err)
	}
	l.RollbackJournal(mark)
	samePlacementState(t, l, snap)
}

// shiftAndRollBack shifts every instance right and back left under the
// open journal, then rolls the journal back to where it started.
func shiftAndRollBack(l *Layout) {
	mark := l.JournalMark()
	for _, in := range l.Netlist.Insts {
		_ = l.ShiftRight(in)
	}
	for _, in := range l.Netlist.Insts {
		_ = l.ShiftLeft(in)
	}
	l.RollbackJournal(mark)
}

// TestJournalRollbackAllocatesNothing: once the journal's buffer has grown,
// recording and rolling back a round of shifts allocates nothing.
func TestJournalRollbackAllocatesNothing(t *testing.T) {
	l := gridLayout(t, 16, 200, 300)
	l.BeginJournal()
	defer l.EndJournal()
	if n := testing.AllocsPerRun(20, func() { shiftAndRollBack(l) }); n != 0 {
		t.Errorf("journal rollback: %v allocs/op, want 0", n)
	}
}

func BenchmarkJournalRollback(b *testing.B) {
	l := gridLayout(b, 16, 200, 300)
	l.BeginJournal()
	defer l.EndJournal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shiftAndRollBack(l)
	}
}

// TestDiffReplayRoundTrip covers the memoization primitives directly:
// DiffPlacements between two mutated clones of one design must replay via
// ApplyMoves onto a third clone bit-identically — including unplacements
// and swaps where transient overlap would fail a naive one-pass replay —
// and a journaled replay must roll back bit-identically too.
func TestDiffReplayRoundTrip(t *testing.T) {
	base := gridLayout(t, 6, 60, 20)
	insts := base.Netlist.Insts

	to := base.Clone()
	// A swap (g0 and g1 exchange sites: transient overlap during replay),
	// a relocation, an unplacement, and a shift.
	p0, p1 := to.PlacementOf(insts[0]), to.PlacementOf(insts[1])
	to.Unplace(to.Netlist.Insts[0])
	to.Unplace(to.Netlist.Insts[1])
	if err := to.Place(to.Netlist.Insts[0], p1.Row, p1.Site); err != nil {
		t.Fatal(err)
	}
	if err := to.Place(to.Netlist.Insts[1], p0.Row, p0.Site); err != nil {
		t.Fatal(err)
	}
	if err := to.Place(to.Netlist.Insts[5], 5, 40); err != nil {
		t.Fatal(err)
	}
	to.Unplace(to.Netlist.Insts[9])
	_ = to.ShiftRight(to.Netlist.Insts[12])

	diff := DiffPlacements(base, to)
	if len(diff) == 0 {
		t.Fatal("no moves diffed")
	}
	for i := 1; i < len(diff); i++ {
		if diff[i].Inst <= diff[i-1].Inst {
			t.Fatalf("diff not in canonical instance order: %+v", diff)
		}
	}

	l := base.Clone()
	l.BeginJournal()
	defer l.EndJournal()
	mark := l.JournalMark()
	if err := l.ApplyMoves(diff); err != nil {
		t.Fatal(err)
	}
	// samePlacementState checks the occupancy grid and placement table
	// exhaustively; Validate would reject the deliberately unplaced g9.
	samePlacementState(t, l, to)
	if DiffPlacements(l, to) != nil {
		t.Error("replayed state still differs from target")
	}

	l.RollbackJournal(mark)
	samePlacementState(t, l, base)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}
