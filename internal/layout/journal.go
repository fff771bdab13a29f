package layout

import (
	"fmt"

	"gdsiiguard/internal/netlist"
)

// The placement journal records every Place/Unplace (and therefore every
// ShiftLeft/ShiftRight, which go through Place) performed while journaling
// is active, so a failed optimization pass can be rolled back in O(moves)
// instead of snapshotting the whole layout with Clone — the deep copy of
// netlist + occupancy grid that used to dominate the ECO operator stage.
//
// Semantics:
//
//   - BeginJournal / EndJournal are depth-counted, so a caller holding a
//     journal across a whole evaluation (core.Scratch) can nest an operator
//     that journals its own passes (CellShift). Records are dropped only
//     when the outermost EndJournal closes the journal.
//   - JournalMark returns a position in the record stream; RollbackJournal
//     replays the inverses of everything after the mark, restoring the
//     occupancy grid and placement table bit-identically to their state at
//     the mark, and truncates the stream back to it.
//   - The journal covers placement state only. Netlist-level mutations
//     (Fixed flags, added instances) and NDR/blockage changes are outside
//     its scope and must be restored by the caller; AdoptPlacements while a
//     journal is open invalidates outstanding marks and clears the stream.
//
// journalRec is one recorded mutation: the instance's placement before and
// after the operation.
type journalRec struct {
	inst     *netlist.Instance
	old, new Placement
}

// BeginJournal starts (or nests into) placement journaling. The first
// Begin clears any stale records; nested Begins only increase the depth.
func (l *Layout) BeginJournal() {
	if l.journalDepth == 0 {
		l.journal = l.journal[:0]
		l.journalWrites = 0
	}
	l.journalDepth++
}

// EndJournal leaves one level of journaling. When the outermost level ends,
// the record stream is discarded (capacity is kept for reuse).
func (l *Layout) EndJournal() {
	if l.journalDepth == 0 {
		return
	}
	l.journalDepth--
	if l.journalDepth == 0 {
		l.journal = l.journal[:0]
	}
}

// Journaling reports whether a placement journal is currently open.
func (l *Layout) Journaling() bool { return l.journalDepth > 0 }

// JournalMark returns the current position in the journal record stream.
// Valid only while the journal stays open and no RollbackJournal truncates
// past it.
func (l *Layout) JournalMark() int { return len(l.journal) }

// JournalLen returns the number of recorded mutations (= JournalMark).
func (l *Layout) JournalLen() int { return len(l.journal) }

// JournalWrites returns the number of records written since the outermost
// BeginJournal, including those a RollbackJournal has since removed: the
// placement work done under the journal, kept or not.
func (l *Layout) JournalWrites() int { return l.journalWrites }

// RollbackJournal undoes every mutation recorded after mark, in reverse
// order, restoring the occupancy grid and placement table exactly as they
// were when the mark was taken, then truncates the stream to the mark.
func (l *Layout) RollbackJournal(mark int) {
	if mark < 0 {
		mark = 0
	}
	for i := len(l.journal) - 1; i >= mark; i-- {
		r := l.journal[i]
		if r.new.Placed {
			l.clearSites(r.inst, r.new)
		}
		if r.old.Placed {
			l.fillSites(r.inst, r.old)
		}
		l.placements[r.inst.ID] = r.old
	}
	l.journal = l.journal[:mark]
}

// InstMove is one entry of a placement diff: the instance (by ID) and the
// placement it holds in the target state. A diff is replayed with
// ApplyMoves; because Place/Unplace record into any open journal, a replay
// remains fully rollback-able (RollbackJournal restores the pre-replay
// state bit-identically).
type InstMove struct {
	Inst int
	To   Placement
}

// DiffPlacements returns the moves that transform from's placement state
// into to's. Both layouts must be clones of the same design (identical
// instance sets in identical order — Clone preserves IDs). The diff
// contains exactly the instances whose placements differ, in instance-ID
// order, so it is a canonical, deterministic encoding of "what the
// operator did" suitable for memoization.
func DiffPlacements(from, to *Layout) []InstMove {
	from.grow()
	to.grow()
	n := len(from.placements)
	if m := len(to.placements); m < n {
		n = m
	}
	var moves []InstMove
	for i := 0; i < n; i++ {
		if from.placements[i] != to.placements[i] {
			moves = append(moves, InstMove{Inst: i, To: to.placements[i]})
		}
	}
	return moves
}

// ApplyMoves replays a placement diff produced by DiffPlacements onto l,
// which must currently be in the diff's "from" state. Every changed
// instance is unplaced first and then placed at its target, so transient
// overlaps between moving cells cannot fail the replay (an instance that
// does not move can never occupy another's target, because the target
// state is a valid placement). All mutations go through Place/Unplace and
// are therefore journaled.
func (l *Layout) ApplyMoves(moves []InstMove) error {
	l.grow()
	for _, m := range moves {
		if m.Inst < 0 || m.Inst >= len(l.Netlist.Insts) {
			return fmt.Errorf("layout: replay move for unknown instance %d", m.Inst)
		}
		cur := l.placements[m.Inst]
		if cur == m.To || !cur.Placed {
			continue
		}
		l.Unplace(l.Netlist.Insts[m.Inst])
	}
	for _, m := range moves {
		if !m.To.Placed || l.placements[m.Inst] == m.To {
			continue
		}
		if err := l.Place(l.Netlist.Insts[m.Inst], m.To.Row, m.To.Site); err != nil {
			return fmt.Errorf("layout: replay: %w", err)
		}
	}
	return nil
}

// record appends one mutation to the journal when journaling is active.
func (l *Layout) record(in *netlist.Instance, old, new Placement) {
	if l.journalDepth > 0 {
		l.journal = append(l.journal, journalRec{inst: in, old: old, new: new})
		l.journalWrites++
	}
}

// clearSites frees the sites of placement p that are owned by in.
func (l *Layout) clearSites(in *netlist.Instance, p Placement) {
	base := p.Row * l.SitesPerRow
	id := int32(in.ID + 1)
	for s := p.Site; s < p.Site+in.Master.WidthSites; s++ {
		if l.occ[base+s] == id {
			l.occ[base+s] = 0
		}
	}
}

// fillSites marks the sites of placement p as owned by in.
func (l *Layout) fillSites(in *netlist.Instance, p Placement) {
	base := p.Row * l.SitesPerRow
	id := int32(in.ID + 1)
	for s := p.Site; s < p.Site+in.Master.WidthSites; s++ {
		l.occ[base+s] = id
	}
}
