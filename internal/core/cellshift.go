package core

import (
	"fmt"
	"sync"

	"gdsiiguard/internal/layout"
)

// CellShiftResult reports one Cell Shift run.
type CellShiftResult struct {
	// Shifts is the total number of single-site shifts Algorithm 1
	// performed: the sites the row passes moved cells by.
	Shifts int
	// CellsMoved is the number of distinct cells moved.
	CellsMoved int
	// DiceMoves is the number of cells relocated by the dicing stage that
	// splits the residual edge regions the row passes cannot reach.
	DiceMoves int
}

// CellShift runs the greedy row-wise Cell Shift operator (Algorithm 1):
// a forward pass visiting rows bottom-up and shifting cells left to erase
// exploitable components of the empty-site graph G=(V,E), followed by the
// mirrored pass shifting right, which removes the regions accumulated on
// the right side of the core.
//
// The component weight w(compo(v)) is re-evaluated after every single-site
// shift, exactly as in the paper's inner loop: shrinking a vertex can
// disconnect it from runs in the rows below, splitting its component — that
// split is precisely what fragments the free space into sub-Thresh_ER
// pockets. The cell itself is then placed once per vertex. Security-critical
// cells shift like any other cell; cells fixed for other reasons never move.
// maxCellShiftPasses bounds the alternating pass count; each pass drains
// the blind-spot edge column left by the previous one, and the loop stops
// as soon as a pass pair yields no further reduction.
const maxCellShiftPasses = 8

func CellShift(l *layout.Layout, threshER int) CellShiftResult {
	return CellShiftWithOptions(l, threshER, true)
}

// CellShiftWithOptions runs the operator with the dicing stage optionally
// disabled — the pure Algorithm 1 row passes — for ablation studies.
func CellShiftWithOptions(l *layout.Layout, threshER int, dice bool) CellShiftResult {
	e := enginePool.Get().(*shiftEngine)
	res := e.run(l, threshER, dice)
	e.release()
	return res
}

// enginePool keeps Cell Shift engines between operator runs, so a run can
// start from the buffers earlier runs grew (the pool empties at every
// garbage collection). An engine whose run panicked is dropped rather than
// returned.
var enginePool = sync.Pool{New: func() any { return new(shiftEngine) }}

// release forgets the layout the engine last ran on and returns the
// engine to the pool.
func (e *shiftEngine) release() {
	e.massTrace = nil
	e.dice.forget()
	enginePool.Put(e)
}

// shiftEngine owns every buffer of one CellShift invocation, so the hot
// loops — row scans, component-weight queries, pass rollback — run
// allocation-free once warm. Not safe for concurrent use; each operator
// invocation takes its own from enginePool.
type shiftEngine struct {
	ix     belowIndex
	runBuf []layout.SiteRun // AppendFreeRuns scratch
	curBuf []freeRun        // current-row runs, mutated by shrinkAndSpill
	// moved[id] marks instance id as moved by a kept row pass; passAdded
	// collects the ids first marked during the current pass, so a
	// rolled-back pass also rolls its CellsMoved entries back.
	moved     []bool
	passAdded []int
	dice      diceScratch
	bands     bandScratch

	// massTrace, when non-nil, receives every exploitableMass checkpoint
	// (set by the golden equivalence test to compare trajectories).
	massTrace *[]int
}

func (e *shiftEngine) run(l *layout.Layout, threshER int, dice bool) CellShiftResult {
	var res CellShiftResult
	e.moved = sizedFalse(e.moved, len(l.Netlist.Insts))
	// The journal replaces the per-pass whole-layout Clone snapshot: a
	// failed pass is rolled back by replaying inverses in O(moves).
	l.BeginJournal()
	defer l.EndJournal()
	// Rounds of (alternating row passes + dicing): dicing reshapes the
	// free-space landscape, which unlocks further row-pass fragmentation.
	const maxRounds = 3
	for round := 0; round < maxRounds; round++ {
		before := e.exploitableMass(l, threshER)
		if before == 0 {
			break
		}
		best := before
		fails := 0
		for pass := 0; pass < maxCellShiftPasses && fails < 2; pass++ {
			mark := l.JournalMark()
			shiftsBefore := res.Shifts
			e.passAdded = e.passAdded[:0]
			e.pass(l, threshER, pass%2 == 1, &res)
			m := e.exploitableMass(l, threshER)
			if m >= best {
				// The pass piled mass against its blind spots (core edge
				// or fixed cells): roll it back, try the other direction.
				l.RollbackJournal(mark)
				res.Shifts = shiftsBefore
				for _, id := range e.passAdded {
					e.moved[id] = false
				}
				fails++
				continue
			}
			fails = 0
			best = m
		}
		// Dicing stage: split what accumulated against the blind spots.
		if dice {
			budget := l.FreeSites()/threshER*2 + 64
			res.DiceMoves += e.diceResidual(l, threshER, budget)
		}
		if e.exploitableMass(l, threshER) >= before {
			break // the round made no net progress
		}
	}
	for _, m := range e.moved {
		if m {
			res.CellsMoved++
		}
	}
	res.CellsMoved += res.DiceMoves
	return res
}

// exploitableMass sums the weights of empty-site components at or above the
// threshold over the whole layout (timing-agnostic: the operator's own
// progress measure). The index and row buffers are reused across calls.
// SoC-scale layouts dispatch to the band-parallel build (see band.go),
// which is bit-identical to the sequential one.
func (e *shiftEngine) exploitableMass(l *layout.Layout, threshER int) int {
	var m int
	if w := resolveBandWorkers(l.NumRows); w > 1 {
		m = e.bands.mass(l.NumRows, threshER, w, layoutRowSource(l))
	} else {
		ix := &e.ix
		ix.reset()
		for r := 0; r < l.NumRows; r++ {
			buf := ix.nextTopBuf()
			e.runBuf = l.AppendFreeRuns(r, e.runBuf[:0])
			for _, run := range e.runBuf {
				buf = append(buf, freeRun{run.Start, run.Len})
			}
			ix.extend(buf)
		}
		m = ix.mass(threshER)
	}
	if e.massTrace != nil {
		*e.massTrace = append(*e.massTrace, m)
	}
	return m
}

// appendRowRuns appends the row's free runs to out in pass coordinates:
// physical order for the forward pass, mirrored for the reverse pass.
// FreeRuns scans left-to-right, so the mirrored list is produced ascending
// by iterating backwards — no sort needed.
func (e *shiftEngine) appendRowRuns(l *layout.Layout, row int, reverse bool, out []freeRun) []freeRun {
	e.runBuf = l.AppendFreeRuns(row, e.runBuf[:0])
	if reverse {
		w := l.SitesPerRow
		for i := len(e.runBuf) - 1; i >= 0; i-- {
			r := e.runBuf[i]
			out = append(out, freeRun{w - (r.Start + r.Len), r.Len})
		}
		return out
	}
	for _, r := range e.runBuf {
		out = append(out, freeRun{r.Start, r.Len})
	}
	return out
}

// pass performs one directional pass. In mirrored space (reverse=true)
// "shift left" means "shift right" physically, so a single implementation
// covers both passes of the algorithm.
//
// Security-critical cells are preprocessed against removal or replacement,
// not against row-wise shifting: a few-site horizontal move keeps the asset
// intact (the paper's CS operates on "designs with loose timing
// constraints" where such moves are benign), so they shift like any other
// cell. Cells fixed for other reasons stay fixed.
func (e *shiftEngine) pass(l *layout.Layout, threshER int, reverse bool, res *CellShiftResult) {
	w := l.SitesPerRow
	phys := func(s int) int {
		if reverse {
			return w - 1 - s
		}
		return s
	}

	below := &e.ix
	below.reset()
	for row := 0; row < l.NumRows; row++ {
		cur := e.appendRowRuns(l, row, reverse, e.curBuf[:0])
		j := 0
		for j < len(cur) {
			if !below.reaches(cur, j, threshER) {
				j++
				continue
			}
			// The cell adjacent to the right (mirrored) of v; phys() maps
			// to its nearest physical site in either direction. A vertex
			// touching the far core edge has no cell to pull: it is the
			// pass's blind spot, handled by the opposite pass and the
			// dicing stage.
			cellSite := cur[j].start + cur[j].length
			if cellSite >= w {
				j++
				continue
			}
			cell := l.At(row, phys(cellSite))
			if cell == nil || (cell.Fixed && !cell.SecurityCritical) {
				j++
				continue
			}
			// Inner loop of Algorithm 1: shift one site at a time,
			// re-checking the component weight after each move (the first
			// check is the one above). The check reads only the run list,
			// so the sites are counted on cur and the cell is placed once,
			// performed sites over: every site it crosses is a free site
			// of v, so the move cannot fail.
			vLen0 := cur[j].length
			performed := 0
			for {
				performed++
				cur = shrinkAndSpill(cur, j, cell.Master.WidthSites)
				if performed == vLen0 || !below.reaches(cur, j, threshER) {
					break
				}
			}
			// Mirrored left is physically right.
			site := l.PlacementOf(cell).Site - performed
			if reverse {
				site += 2 * performed
			}
			if err := l.Place(cell, row, site); err != nil {
				panic(fmt.Errorf("core: cell shift run list out of step with the occupancy grid: %w", err))
			}
			if !e.moved[cell.ID] {
				e.moved[cell.ID] = true
				e.passAdded = append(e.passAdded, cell.ID)
			}
			res.Shifts += performed
			// Advance unless v vanished: the spilled run slid into slot j
			// and must be visited as the next vertex (Algorithm 1 line 14).
			if performed < vLen0 {
				j++
			}
		}
		e.curBuf = cur[:0] // keep the (possibly grown) capacity
		// Extend the index with the row's post-shift runs: it becomes the
		// new top row of the processed graph.
		below.extend(e.appendRowRuns(l, row, reverse, below.nextTopBuf()))
	}
}

// shrinkAndSpill updates the mirrored run list after the cell right of run
// j moved one site toward it: run j loses its last site; the freed site
// appears just past the cell, extending the following run or creating one.
func shrinkAndSpill(cur []freeRun, j, cellWidth int) []freeRun {
	spillAt := cur[j].start + cur[j].length + cellWidth - 1
	cur[j].length--
	if j+1 < len(cur) && cur[j+1].start == spillAt+1 {
		cur[j+1].start--
		cur[j+1].length++
	} else {
		cur = append(cur, freeRun{})
		copy(cur[j+2:], cur[j+1:])
		cur[j+1] = freeRun{start: spillAt, length: 1}
	}
	if cur[j].length == 0 {
		cur = append(cur[:j], cur[j+1:]...)
	}
	return cur
}
