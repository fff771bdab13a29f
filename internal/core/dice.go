package core

import (
	"slices"

	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/netlist"
)

// The dicing stage finishes what the row-wise shifts cannot: Algorithm 1
// provably reduces every component below Thresh_ER except the mass that
// accumulates against each pass's blind spots (core edges and fixed
// security-critical cells). Dicing splits those residual regions directly
// with targeted ECO cell relocations, in the same spirit as the operator:
//
//   - a "safe donor" is a movable cell whose departure cannot itself create
//     an exploitable region (the joined gap stays below threshold);
//   - a "split donor" borders the target region itself, so moving it into
//     the region's interior re-shapes the region, cutting it apart.
//
// A move is kept only if it strictly lowers the quadratic potential Φ of
// the exploitable components, so the stage monotonically converges. A
// candidate move is scored from the labeling without being made, so the
// labeling, every cell's donor facts and the donor index stay exact until
// the next kept move: all three are built once per labeling, and scoring
// relabels only the target's component minus the cut.

// fullRun is one free run with its component id over the whole layout.
type fullRun struct {
	row, start, length int
	comp               int
}

// compBuf holds one component labeling with all its storage reusable
// across dicing attempts: runs in row-major order (for a whole-layout
// labeling, row r occupies runs[rowStart[r]:rowStart[r+1]]), a union-find
// arena, and per-root weights (indexed by run id, valid at component
// roots).
type compBuf struct {
	runs     []fullRun
	rowStart []int
	parent   []int
	weights  []int
}

// diceRowCache memoizes per-row occupancy scans (free runs and cell
// lists) across dicing attempts. A kept dicing move touches at most two
// rows; every other row's scan stays valid, and the free runs of the two
// it touches are patched in place (vacate, occupy), so the next relabel
// re-scans no row. Only the cell lists of the touched rows are dropped.
type diceRowCache struct {
	runs       [][]layout.SiteRun
	cells      [][]*netlist.Instance
	runsValid  []bool
	cellsValid []bool
}

// reset invalidates every row (storage is kept) for a new dicing stage.
func (rc *diceRowCache) reset(nRows int) {
	if cap(rc.runs) < nRows {
		rc.runs = make([][]layout.SiteRun, nRows)
		rc.cells = make([][]*netlist.Instance, nRows)
		rc.runsValid = make([]bool, nRows)
		rc.cellsValid = make([]bool, nRows)
	}
	rc.runs = rc.runs[:nRows]
	rc.cells = rc.cells[:nRows]
	rc.runsValid = rc.runsValid[:nRows]
	rc.cellsValid = rc.cellsValid[:nRows]
	for r := range rc.runsValid {
		rc.runsValid[r] = false
		rc.cellsValid[r] = false
	}
}

// invalidate marks one row's scans stale, after a change in the row made
// without move.
func (rc *diceRowCache) invalidate(row int) {
	if row >= 0 && row < len(rc.runsValid) {
		rc.runsValid[row] = false
		rc.cellsValid[row] = false
	}
}

// vacate patches the row's cached free runs after a cell left the sites
// [site, site+w): they merge with the runs ending at site and starting at
// site+w. A row whose runs are not cached stays uncached.
func (rc *diceRowCache) vacate(row, site, w int) {
	rc.cellsValid[row] = false
	if !rc.runsValid[row] {
		return
	}
	runs := rc.runs[row]
	i := 0 // the first run starting past site
	for i < len(runs) && runs[i].Start <= site {
		i++
	}
	left := i > 0 && runs[i-1].Start+runs[i-1].Len == site
	right := i < len(runs) && runs[i].Start == site+w
	switch {
	case left && right:
		runs[i-1].Len += w + runs[i].Len
		runs = slices.Delete(runs, i, i+1)
	case left:
		runs[i-1].Len += w
	case right:
		runs[i].Start = site
		runs[i].Len += w
	default:
		runs = slices.Insert(runs, i, layout.SiteRun{Row: row, Start: site, Len: w})
	}
	rc.runs[row] = runs
}

// occupy patches the row's cached free runs after a cell took the sites
// [site, site+w), splitting the free run that held them. A row whose runs
// are not cached stays uncached.
func (rc *diceRowCache) occupy(row, site, w int) {
	rc.cellsValid[row] = false
	if !rc.runsValid[row] {
		return
	}
	runs := rc.runs[row]
	i := len(runs) - 1 // the last run starting at or before site
	for i >= 0 && runs[i].Start > site {
		i--
	}
	if i < 0 || runs[i].Start+runs[i].Len < site+w {
		rc.runsValid[row] = false // not a free span: rescan on next use
		return
	}
	r := runs[i]
	leftLen, rightLen := site-r.Start, r.Start+r.Len-(site+w)
	switch {
	case leftLen > 0 && rightLen > 0:
		runs[i].Len = leftLen
		runs = slices.Insert(runs, i+1, layout.SiteRun{Row: row, Start: site + w, Len: rightLen})
	case leftLen > 0:
		runs[i].Len = leftLen
	case rightLen > 0:
		runs[i].Start = site + w
		runs[i].Len = rightLen
	default:
		runs = slices.Delete(runs, i, i+1)
	}
	rc.runs[row] = runs
}

func (rc *diceRowCache) rowRuns(l *layout.Layout, r int) []layout.SiteRun {
	if !rc.runsValid[r] {
		rc.runs[r] = l.AppendFreeRuns(r, rc.runs[r][:0])
		rc.runsValid[r] = true
	}
	return rc.runs[r]
}

func (rc *diceRowCache) rowCells(l *layout.Layout, r int) []*netlist.Instance {
	if !rc.cellsValid[r] {
		rc.cells[r] = l.AppendRowCells(r, rc.cells[r][:0])
		rc.cellsValid[r] = true
	}
	return rc.cells[r]
}

// build labels every free run of the layout with a component id and fills
// the per-component weights, reusing the buffer's storage. Row scans come
// from the cache, so only rows that changed since the last build hit the
// occupancy grid.
func (c *compBuf) build(l *layout.Layout, rc *diceRowCache) {
	c.runs = c.runs[:0]
	c.rowStart = c.rowStart[:0]
	for r := 0; r < l.NumRows; r++ {
		c.rowStart = append(c.rowStart, len(c.runs))
		for _, run := range rc.rowRuns(l, r) {
			c.runs = append(c.runs, fullRun{row: r, start: run.Start, length: run.Len})
		}
	}
	c.rowStart = append(c.rowStart, len(c.runs))
	c.label()
}

// label unions every pair of overlapping runs in adjacent rows and fills
// the comp ids and per-root weights. The runs must be in row-major order;
// rows may be missing (a component minus a cut covers only its own rows).
func (c *compBuf) label() {
	n := len(c.runs)
	c.parent = sized(c.parent, n)
	for i := range c.parent {
		c.parent[i] = i
	}
	for i0 := 0; i0 < n; {
		i1 := c.rowEnd(i0)
		if i1 < n && c.runs[i1].row == c.runs[i0].row+1 {
			c.link(i0, i1, i1, c.rowEnd(i1))
		}
		i0 = i1
	}
	c.weights = sized(c.weights, n)
	for i := range c.weights {
		c.weights[i] = 0
	}
	for i := range c.runs {
		c.runs[i].comp = c.find(i)
		c.weights[c.runs[i].comp] += c.runs[i].length
	}
}

// rowEnd returns the end of the row group that starts at run i.
func (c *compBuf) rowEnd(i int) int {
	row := c.runs[i].row
	for i < len(c.runs) && c.runs[i].row == row {
		i++
	}
	return i
}

// link unions the overlapping runs of two adjacent rows, runs[lo0:lo1]
// below and runs[hi0:hi1] above, in one merge-scan.
func (c *compBuf) link(lo0, lo1, hi0, hi1 int) {
	i, j := lo0, hi0
	for i < lo1 && j < hi1 {
		a, b := c.runs[i], c.runs[j]
		if a.start < b.start+b.length && b.start < a.start+a.length {
			ra, rb := c.find(i), c.find(j)
			if ra != rb {
				c.parent[ra] = rb
			}
		}
		if a.start+a.length < b.start+b.length {
			i++
		} else {
			j++
		}
	}
}

func (c *compBuf) find(x int) int {
	for c.parent[x] != x {
		c.parent[x] = c.parent[c.parent[x]]
		x = c.parent[x]
	}
	return x
}

// rowRuns returns the runs of one row (empty slice outside the core).
func (c *compBuf) rowRuns(r int) []fullRun {
	if r < 0 || r+1 >= len(c.rowStart) {
		return nil
	}
	return c.runs[c.rowStart[r]:c.rowStart[r+1]]
}

// diceScratch is the reusable state of the dicing stage. Everything below
// cache is per labeling: the labeling a itself, the target runs given up
// on, a's runs grouped by component, the donor facts and the donor index.
// The cut fields hold the parts of one target component minus one cut.
type diceScratch struct {
	a     compBuf
	cache diceRowCache

	// skipped[i] marks run i of a as a given-up target.
	skipped []bool
	// compRuns[compStart[c]:compStart[c+1]] are the run ids of the
	// component rooted at c, ascending (so row-major).
	compStart []int
	compRuns  []int
	// donorRows[r] holds row r's donor facts once donorValid[r]; nbComps
	// is the slab their neighbour components live in.
	donorRows  [][]diceDonor
	donorValid []bool
	nbComps    []int

	// The donor index, for threshold indexThresh while indexed: the
	// eligible targets in pickTarget order, targets[:nextTarget] all given
	// up, built on the labeling's first attempt; and, built per row with
	// the row's donor facts once rowIndexed[r], the row's safe donors,
	// safe[safeRange[r][0]:safeRange[r][1]], and for each exploitable
	// component c a chain of the donors bordering it: splitDonor[k] for k
	// from splitHead[c] along splitNext until -1.
	indexed     bool
	indexThresh int
	targets     []diceTarget
	nextTarget  int
	rowIndexed  []bool
	safeRange   [][2]int
	safe        []*diceDonor
	splitHead   []int
	splitNext   []int
	splitDonor  []*diceDonor
	cands       []diceCand

	// The target component T minus its target run, labeled once per
	// attempt (cutTarget): cut holds T's other runs, cutOf[i] is run i's
	// index in cut.runs, cutAdj those of the target run's neighbours in the
	// rows above and below, and cutBase is Φ with T's term replaced by the
	// terms of cut's components. A cut of the target run (cutAt) leaves a
	// left and a right remnant, which join the cut components their
	// neighbours belong to: part ids cutL and cutR (n and n+1 for
	// n = len(cut.runs), cutR = cutL when the two join, -1 when empty),
	// weighing partW[0] and partW[1], cutJoin[root] the sides (bit 0 left,
	// bit 1 right) cut component root joins, and cutPhi Φ with T's term
	// replaced by its parts'. mark[p] == stamp flags part p as joined to
	// the donor's vacancy by the current score.
	cut     compBuf
	cutOf   []int
	cutAdj  []int
	cutBase int64
	cutJoin []uint8
	cutL    int
	cutR    int
	partW   [2]int
	cutPhi  int64
	mark    []uint32
	stamp   uint32
}

// diceDonor is one movable cell's donor facts under the current labeling:
// where it sits, its joint vacancy weight (its width plus the weights of
// the distinct components bordering it, which its departure would join)
// and those components, nbComps[nb0:nb1].
type diceDonor struct {
	in        *netlist.Instance
	row, site int
	joint     int
	nb0, nb1  int
}

// diceTarget is one run pickTarget may choose: its component's weight,
// its length and its run id.
type diceTarget struct {
	weight, length, run int
}

// cmp orders targets as pickTarget chooses them: heaviest component
// first, then longest run, then lowest run id.
func (a diceTarget) cmp(b diceTarget) int {
	switch {
	case a.weight != b.weight:
		return b.weight - a.weight
	case a.length != b.length:
		return b.length - a.length
	}
	return a.run - b.run
}

// diceCand is one scored donor candidate: tier 0 = safe (vacancy stays
// sub-threshold), 1 = split (vacancy rejoins the target region), 2 =
// last-resort; ties broken by distance then instance ID — a strict total
// order, so bounded selection equals full sort + truncate.
type diceCand struct {
	dn   *diceDonor
	dist int
	tier int
}

func (a diceCand) before(b diceCand) bool {
	if a.tier != b.tier {
		return a.tier < b.tier
	}
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.dn.in.ID < b.dn.in.ID
}

// exploitablePotential returns the total exploitable mass and a quadratic
// potential Φ = Σ w² over exploitable components. Φ strictly decreases when
// a region shrinks OR splits, and increases when regions merge, so it is
// the dicing stage's progress measure.
func exploitablePotential(weights []int, threshER int) (mass int, phi int64) {
	for _, w := range weights {
		phi += sqExploitable(w, threshER)
		if w >= threshER {
			mass += w
		}
	}
	return mass, phi
}

// sqExploitable is one component's term of Φ: w² when the component is
// exploitable, 0 otherwise.
func sqExploitable(w, threshER int) int64 {
	if w < threshER {
		return 0
	}
	return int64(w) * int64(w)
}

// diceResidual splits residual exploitable regions by relocating donor
// cells into their longest runs, keeping only moves that strictly reduce
// the global exploitable mass. It returns the number of cells relocated.
func (e *shiftEngine) diceResidual(l *layout.Layout, threshER, maxMoves int) int {
	d := &e.dice
	moves := 0
	// The row cache starts cold: the row passes just moved cells anywhere.
	d.cache.reset(l.NumRows)
	// Attempts (including rejected ones) are bounded separately from
	// accepted moves so pathological landscapes cannot stall the flow.
	var mass int
	var phi int64
	dirty := true // labeling stale: the layout changed since d.a was built
	for attempts := 0; moves < maxMoves && attempts < 2*maxMoves; attempts++ {
		if dirty {
			d.relabel(l)
			mass, phi = exploitablePotential(d.a.weights, threshER)
			dirty = false
		}
		if mass == 0 {
			return moves
		}
		ti, accepted := d.attempt(l, threshER, phi)
		if ti < 0 {
			return moves
		}
		if accepted {
			moves++
			// Fresh geometry: the relabel also forgets the given-up
			// targets, which may now be splittable.
			dirty = true
		} else {
			d.skipped[ti] = true
		}
	}
	return moves
}

// diceCandidates is how many donors an attempt considers per target.
const diceCandidates = 4

// attempt makes one dicing attempt on the labeling d.a, whose potential is
// phi: it picks the target run and tries up to four donors into it,
// keeping the first whose move lowers Φ. A candidate's Φ after the move is
// computed from the labeling (score), not by making the move, so only the
// kept move touches the layout and its journal. It returns the target's
// run id (-1 when none is left) and whether a move was kept.
func (d *diceScratch) attempt(l *layout.Layout, threshER int, phi int64) (ti int, accepted bool) {
	d.index(l, threshER)
	ti = d.pickTarget()
	if ti < 0 {
		return ti, false
	}
	target := &d.a.runs[ti]
	cands := d.donorCandidates(l, threshER, target)
	var scores [diceCandidates]int64
	var scored [diceCandidates]bool
	labeled := false
	for k, cd := range cands {
		dn := cd.dn
		w := dn.in.Master.WidthSites
		at := splitPosition(target, w, threshER)
		if at < 0 {
			break
		}
		// A safe donor always lowers Φ: its vacancy stays sub-threshold
		// and cannot reach the target, whose component loses w ≥ 1 sites
		// to the cut, so the parts' Σ p² ≤ (W−w)² < W².
		if cd.tier != 0 {
			if !scored[k] {
				// One labeling of the target's component serves the
				// attempt, one cut every candidate of the same width.
				if !labeled {
					d.cutTarget(ti, threshER, phi)
					labeled = true
				}
				d.cutAt(ti, at, w, threshER)
				for j := k; j < len(cands); j++ {
					if cands[j].dn.in.Master.WidthSites == w {
						scores[j], scored[j] = d.score(ti, at, cands[j].dn, threshER), true
					}
				}
			}
			if scores[k] >= phi {
				continue
			}
		}
		if err := d.move(l, dn.in, dn.row, dn.site, target.row, at); err != nil {
			continue
		}
		return ti, true
	}
	return ti, false
}

// move places in, which sits at (fromRow, fromSite), at (toRow, toSite)
// and patches the row cache to match.
func (d *diceScratch) move(l *layout.Layout, in *netlist.Instance, fromRow, fromSite, toRow, toSite int) error {
	if err := l.Place(in, toRow, toSite); err != nil {
		return err
	}
	w := in.Master.WidthSites
	d.cache.vacate(fromRow, fromSite, w)
	d.cache.occupy(toRow, toSite, w)
	return nil
}

// relabel builds the labeling of the current layout and resets everything
// derived from the previous one.
func (d *diceScratch) relabel(l *layout.Layout) {
	d.a.build(l, &d.cache)
	n := len(d.a.runs)
	d.skipped = sizedFalse(d.skipped, n)

	// Group run ids by component (a counting sort): count at c+1,
	// prefix-sum into starts, fill advancing each start to its end, then
	// shift the ends back one slot into starts.
	d.compStart = sized(d.compStart, n+1)
	for i := range d.compStart {
		d.compStart[i] = 0
	}
	for _, r := range d.a.runs {
		d.compStart[r.comp+1]++
	}
	for c := 0; c < n; c++ {
		d.compStart[c+1] += d.compStart[c]
	}
	d.compRuns = sized(d.compRuns, n)
	for i, r := range d.a.runs {
		d.compRuns[d.compStart[r.comp]] = i
		d.compStart[r.comp]++
	}
	copy(d.compStart[1:], d.compStart[:n])
	d.compStart[0] = 0

	// A component minus its target run has fewer than n runs, plus the
	// two remnants' part ids.
	d.mark = slices.Grow(d.mark[:0], n+2)[:n+2]
	clear(d.mark)
	d.stamp = 0
	d.cutOf = sized(d.cutOf, n)
	d.cutJoin = slices.Grow(d.cutJoin[:0], n)[:n]

	if cap(d.donorRows) < l.NumRows {
		d.donorRows = make([][]diceDonor, l.NumRows)
	}
	d.donorRows = d.donorRows[:l.NumRows]
	d.donorValid = sizedFalse(d.donorValid, l.NumRows)
	d.nbComps = d.nbComps[:0]
	d.indexed = false
}

// sizedFalse returns s resized to n with every entry false, growing as
// sized does.
func sizedFalse(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n, max(n, 2*cap(s)))
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// index readies the labeling's donor index for threshER: it orders the
// eligible targets and resets the per-row index, unless both are ready.
func (d *diceScratch) index(l *layout.Layout, threshER int) {
	if d.indexed && d.indexThresh == threshER {
		return
	}
	d.indexed, d.indexThresh = true, threshER
	d.targets = d.targets[:0]
	for i, r := range d.a.runs {
		if w := d.a.weights[r.comp]; w >= threshER && r.length >= 3 {
			d.targets = append(d.targets, diceTarget{weight: w, length: r.length, run: i})
		}
	}
	slices.SortFunc(d.targets, diceTarget.cmp)
	d.nextTarget = 0
	d.rowIndexed = sizedFalse(d.rowIndexed, l.NumRows)
	if cap(d.safeRange) < l.NumRows {
		d.safeRange = make([][2]int, l.NumRows)
	}
	d.safeRange = d.safeRange[:l.NumRows]
	d.safe = d.safe[:0]
	d.splitHead = sized(d.splitHead, len(d.a.runs))
	for c := range d.splitHead {
		d.splitHead[c] = -1
	}
	d.splitNext = d.splitNext[:0]
	d.splitDonor = d.splitDonor[:0]
}

// indexRow indexes row r's donors on first use: the safe donors, and each
// donor bordering an exploitable component on that component's chain.
// Targets belong to exploitable components only, and a donor bordering
// one is never safe: its joint weight includes the component's.
func (d *diceScratch) indexRow(l *layout.Layout, r int) {
	if d.rowIndexed[r] {
		return
	}
	d.rowIndexed[r] = true
	d.safeRange[r][0] = len(d.safe)
	donors := d.rowDonors(l, r)
	for i := range donors {
		dn := &donors[i]
		if dn.joint < d.indexThresh {
			d.safe = append(d.safe, dn)
			continue
		}
		for _, c := range d.nbComps[dn.nb0:dn.nb1] {
			if d.a.weights[c] >= d.indexThresh {
				d.splitNext = append(d.splitNext, d.splitHead[c])
				d.splitDonor = append(d.splitDonor, dn)
				d.splitHead[c] = len(d.splitDonor) - 1
			}
		}
	}
	d.safeRange[r][1] = len(d.safe)
}

// pickTarget returns the index of the longest run of the heaviest
// exploitable component that has not been given up on, or -1. Targets are
// given up only until the next relabel, so the index's cursor only moves
// forward.
func (d *diceScratch) pickTarget() int {
	for ; d.nextTarget < len(d.targets); d.nextTarget++ {
		if i := d.targets[d.nextTarget].run; !d.skipped[i] {
			return i
		}
	}
	return -1
}

// splitPosition places a donor of the given width inside the run so the
// left fragment stays below threshold; -1 when the run cannot host it.
func splitPosition(target *fullRun, width, threshER int) int {
	if width >= target.length {
		return -1
	}
	at := target.start + threshER - 1
	if at+width > target.start+target.length {
		at = target.start + target.length/2 - width/2
	}
	if at < target.start {
		at = target.start
	}
	if at+width > target.start+target.length {
		return -1
	}
	return at
}

// donorRowWindow bounds the donor search to rows around the target:
// distant donors would pay too much wirelength anyway.
const donorRowWindow = 14

// donorCandidates collects up to four donor cells: safe donors (vacating
// them creates only sub-threshold gaps) and split donors (cells bordering
// the target component), nearest to the target first, and last-resort
// donors when those are fewer than four. The safe and split donors come
// from the index, so an attempt ranks only them; the window scan
// runs only for the last resort. A bounded best-n insertion replaces the
// full sort (identical result — the (tier, dist, ID) order is strict and
// total).
func (d *diceScratch) donorCandidates(l *layout.Layout, threshER int, target *fullRun) []diceCand {
	lo, hi := max(target.row-donorRowWindow, 0), min(target.row+donorRowWindow, l.NumRows-1)
	best := d.cands[:0]
	found := 0
	for r := lo; r <= hi; r++ {
		d.indexRow(l, r)
		for _, dn := range d.safe[d.safeRange[r][0]:d.safeRange[r][1]] {
			if dn.in.Master.WidthSites < target.length {
				best = considerCand(best, diceCand{dn, donorDist(dn, target), 0})
				found++
			}
		}
	}
	for k := d.splitHead[target.comp]; k >= 0; k = d.splitNext[k] {
		if dn := d.splitDonor[k]; dn.row >= lo && dn.row <= hi && dn.in.Master.WidthSites < target.length {
			best = considerCand(best, diceCand{dn, donorDist(dn, target), 1})
			found++
		}
	}
	if found < diceCandidates {
		best = d.scanDonors(l, threshER, target, best[:0])
	}
	d.cands = best // keep capacity for the next attempt
	return best
}

// scanDonors ranks every donor of the row window around the target into
// best, the last resort included. A placed cell lives in exactly one row,
// so the row sweep visits each candidate once.
func (d *diceScratch) scanDonors(l *layout.Layout, threshER int, target *fullRun, best []diceCand) []diceCand {
	for r := target.row - donorRowWindow; r <= target.row+donorRowWindow; r++ {
		if r < 0 || r >= l.NumRows {
			continue
		}
		donors := d.rowDonors(l, r)
		for i := range donors {
			dn := &donors[i]
			if dn.in.Master.WidthSites >= target.length {
				continue
			}
			tier := 2
			switch {
			case dn.joint < threshER:
				tier = 0 // safe: vacancy stays sub-threshold
			case slices.Contains(d.nbComps[dn.nb0:dn.nb1], target.comp):
				tier = 1 // split: vacancy rejoins the target region
			}
			best = considerCand(best, diceCand{dn, donorDist(dn, target), tier})
		}
	}
	return best
}

// donorDist is the ranking distance of a donor from the target run.
func donorDist(dn *diceDonor, target *fullRun) int {
	return abs(dn.row-target.row)*8 + abs(dn.site-target.start)
}

// considerCand inserts cd into best, kept sorted and at most
// diceCandidates long.
func considerCand(best []diceCand, cd diceCand) []diceCand {
	if len(best) == diceCandidates {
		if !cd.before(best[diceCandidates-1]) {
			return best
		}
		best = best[:diceCandidates-1]
	}
	i := len(best)
	best = append(best, cd)
	for i > 0 && cd.before(best[i-1]) {
		best[i] = best[i-1]
		i--
	}
	best[i] = cd
	return best
}

// rowDonors returns the donor facts of row r's movable cells under the
// current labeling, computing them on first use. Cells and runs are both
// ascending by site, so each neighbour lookup is a forward-only cursor.
func (d *diceScratch) rowDonors(l *layout.Layout, r int) []diceDonor {
	if d.donorValid[r] {
		return d.donorRows[r]
	}
	cur, below, above := d.a.rowRuns(r), d.a.rowRuns(r-1), d.a.rowRuns(r+1)
	var li, ri, bi, ai int
	out := d.donorRows[r][:0]
	for _, in := range d.cache.rowCells(l, r) {
		if in.Fixed || !in.Master.IsFunctional() {
			continue
		}
		site, w := l.PlacementOf(in).Site, in.Master.WidthSites
		dn := diceDonor{in: in, row: r, site: site, joint: w, nb0: len(d.nbComps)}
		add := func(cc int) {
			if slices.Contains(d.nbComps[dn.nb0:], cc) {
				return
			}
			d.nbComps = append(d.nbComps, cc)
			dn.joint += d.a.weights[cc]
		}
		if k := runAt(cur, &li, site-1); k >= 0 {
			add(cur[k].comp)
		}
		if k := runAt(cur, &ri, site+w); k >= 0 {
			add(cur[k].comp)
		}
		for _, nb := range [2]struct {
			runs []fullRun
			k    *int
		}{{below, &bi}, {above, &ai}} {
			runs, k := nb.runs, nb.k
			for *k < len(runs) && runs[*k].start+runs[*k].length <= site {
				*k++
			}
			for j := *k; j < len(runs) && runs[j].start < site+w; j++ {
				add(runs[j].comp)
			}
		}
		dn.nb1 = len(d.nbComps)
		out = append(out, dn)
	}
	d.donorRows[r] = out
	d.donorValid[r] = true
	return out
}

// runAt advances the cursor *k over runs (ascending) to the first run
// ending past site and returns its index if it contains site, else -1.
// Successive queries must not decrease.
func runAt(runs []fullRun, k *int, site int) int {
	for *k < len(runs) && runs[*k].start+runs[*k].length <= site {
		*k++
	}
	if *k < len(runs) && site >= runs[*k].start {
		return *k
	}
	return -1
}

// cutTarget labels target run ti's component T without the target run,
// given phi, Φ of the labeling. Each run of T is in one component of the
// rest or in the target run, so every component of the rest borders the
// target run; the target run's neighbours in the rows above and below are
// the runs through which a cut's remnants may join them.
func (d *diceScratch) cutTarget(ti, threshER int, phi int64) {
	t := d.a.runs[ti]
	c := &d.cut
	c.runs = c.runs[:0]
	for _, i := range d.compRuns[d.compStart[t.comp]:d.compStart[t.comp+1]] {
		if i != ti {
			d.cutOf[i] = len(c.runs)
			c.runs = append(c.runs, d.a.runs[i])
		}
	}
	c.label()
	phi -= sqExploitable(d.a.weights[t.comp], threshER)
	for i, r := range c.runs {
		if r.comp == i {
			phi += sqExploitable(c.weights[i], threshER)
		}
		d.cutJoin[i] = 0
	}
	d.cutBase = phi
	d.cutAdj = d.cutAdj[:0]
	for _, r := range [2]int{t.row - 1, t.row + 1} {
		runs := d.a.rowRuns(r)
		for k := firstEndingAfter(runs, t.start); k < len(runs) && runs[k].start < t.start+t.length; k++ {
			d.cutAdj = append(d.cutAdj, d.cutOf[d.a.rowStart[r]+k])
		}
	}
}

// cutAt sets the parts of the component cutTarget labeled once a donor of
// width w takes the sites [at, at+w) of target run ti: each remnant joins
// the components its neighbours belong to, both remnants join into one
// part when some component borders both, and every other component stays
// a part. It sets cutPhi, Φ with T's term replaced by its parts'. No
// other component changes until the donor's vacancy is accounted for,
// which score does per donor.
func (d *diceScratch) cutAt(ti, at, w, threshER int) {
	t := d.a.runs[ti]
	n := len(d.cut.runs)
	lo, hi := at, at+w // the cut
	end := t.start + t.length
	d.cutL, d.cutR = -1, -1
	d.partW = [2]int{}
	if lo > t.start {
		d.cutL, d.partW[0] = n, lo-t.start
	}
	if hi < end {
		d.cutR, d.partW[1] = n+1, end-hi
	}
	for _, slot := range d.cutAdj {
		d.cutJoin[d.cut.runs[slot].comp] = 0
	}
	for _, slot := range d.cutAdj {
		r := &d.cut.runs[slot]
		if d.cutL >= 0 && r.start < lo && r.start+r.length > t.start {
			d.cutJoin[r.comp] |= 1
		}
		if d.cutR >= 0 && r.start < end && r.start+r.length > hi {
			d.cutJoin[r.comp] |= 2
		}
	}
	phi := d.cutBase
	joined := false
	for _, slot := range d.cutAdj {
		root := d.cut.runs[slot].comp
		side := d.cutJoin[root]
		if side&3 == 0 || side&4 != 0 {
			continue
		}
		d.cutJoin[root] |= 4 // counted
		phi -= sqExploitable(d.cut.weights[root], threshER)
		if side&1 != 0 {
			d.partW[0] += d.cut.weights[root]
		} else {
			d.partW[1] += d.cut.weights[root]
		}
		joined = joined || side&3 == 3
	}
	if joined {
		d.cutR = d.cutL
		d.partW = [2]int{d.partW[0] + d.partW[1], 0}
	}
	d.cutPhi = phi + sqExploitable(d.partW[0], threshER) + sqExploitable(d.partW[1], threshER)
}

// partOf returns the part id of the cut component holding cut run slot.
func (d *diceScratch) partOf(slot int) int {
	root := d.cut.runs[slot].comp
	switch d.cutJoin[root] & 3 {
	case 0:
		return root
	case 2:
		return d.cutR
	}
	return d.cutL
}

// score returns Φ after donor dn moves into the cut cutAt last set, the
// sites from at of target run ti, exact in int64 and without making the
// move. The move changes only the target's component T, which becomes its
// parts, and the donor's vacancy, which joins its neighbour components
// into one: every neighbour component but T whole (none of their runs
// changes), and those parts of T that border the vacancy once the cut is
// occupied. The latter are found among the vacancy's neighbour runs in its
// own row and the rows above and below, where the target run stands for
// its remnants.
func (d *diceScratch) score(ti, at int, dn *diceDonor, threshER int) int64 {
	t := &d.a.runs[ti]
	phi := d.cutPhi
	joint := dn.in.Master.WidthSites
	bordersT := false
	for _, c := range d.nbComps[dn.nb0:dn.nb1] {
		if c == t.comp {
			bordersT = true
			continue
		}
		phi -= sqExploitable(d.a.weights[c], threshER)
		joint += d.a.weights[c]
	}
	if bordersT {
		d.stamp++
		s, e := dn.site, dn.site+dn.in.Master.WidthSites // the vacancy
		cutEnd := at + dn.in.Master.WidthSites
		// The vacancy's own row: the runs ending at s and starting at e.
		runs, base := d.a.rowRuns(dn.row), d.a.rowStart[dn.row]
		k := firstEndingAfter(runs, s)
		if k > 0 && runs[k-1].start+runs[k-1].length == s && runs[k-1].comp == t.comp {
			if g := base + k - 1; g != ti {
				d.joinPart(d.partOf(d.cutOf[g]), threshER, &phi, &joint)
			} else {
				d.joinPart(d.cutR, threshER, &phi, &joint)
			}
		}
		if k < len(runs) && runs[k].start == e && runs[k].comp == t.comp {
			if g := base + k; g != ti {
				d.joinPart(d.partOf(d.cutOf[g]), threshER, &phi, &joint)
			} else {
				d.joinPart(d.cutL, threshER, &phi, &joint)
			}
		}
		// The rows below and above: the runs overlapping [s, e), so the
		// target run, if among them, ends past s.
		for _, r := range [2]int{dn.row - 1, dn.row + 1} {
			runs := d.a.rowRuns(r)
			if len(runs) == 0 {
				continue
			}
			base := d.a.rowStart[r]
			for k := firstEndingAfter(runs, s); k < len(runs) && runs[k].start < e; k++ {
				if runs[k].comp != t.comp {
					continue
				}
				if g := base + k; g != ti {
					d.joinPart(d.partOf(d.cutOf[g]), threshER, &phi, &joint)
					continue
				}
				if d.cutL >= 0 && at > s {
					d.joinPart(d.cutL, threshER, &phi, &joint)
				}
				if d.cutR >= 0 && cutEnd < e {
					d.joinPart(d.cutR, threshER, &phi, &joint)
				}
			}
		}
	}
	return phi + sqExploitable(joint, threshER)
}

// joinPart merges part p into the vacancy's component, once per score.
func (d *diceScratch) joinPart(p, threshER int, phi *int64, joint *int) {
	if p < 0 || d.mark[p] == d.stamp {
		return
	}
	d.mark[p] = d.stamp
	w := d.partW[0]
	switch {
	case p < len(d.cut.runs):
		w = d.cut.weights[p]
	case p == len(d.cut.runs)+1:
		w = d.partW[1]
	}
	*phi -= sqExploitable(w, threshER)
	*joint += w
}

// firstEndingAfter returns the index of the first of runs (ascending) that
// ends past site, or len(runs).
func firstEndingAfter(runs []fullRun, site int) int {
	lo, hi := 0, len(runs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if runs[m].start+runs[m].length <= site {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// forget drops every reference to the instances of the layout the dicing
// stage last ran on, so a pooled engine keeps no netlist alive.
func (d *diceScratch) forget() {
	for _, cells := range d.cache.cells[:cap(d.cache.cells)] {
		clear(cells[:cap(cells)])
	}
	for _, donors := range d.donorRows[:cap(d.donorRows)] {
		clear(donors[:cap(donors)])
	}
	clear(d.safe[:cap(d.safe)])
	clear(d.splitDonor[:cap(d.splitDonor)])
	clear(d.cands[:cap(d.cands)])
}
