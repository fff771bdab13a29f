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
// Every move is validated against the global exploitable mass and reverted
// if it does not strictly help, so the stage monotonically converges.
//
// A rejected attempt reverts every probe, so the labeling and every cell's
// donor facts stay exact until the next accepted move: both are built once
// per labeling (the facts lazily per row), and a probe relabels only the
// components it can change.

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
// lists) across dicing attempts. A dice probe moves one donor, touching at
// most two rows; every other row's scan stays valid, and the free runs of
// the two it touches are patched in place (vacate, occupy), so scoring a
// probe or reverting it re-scans no row. Only the cell lists of the
// touched rows are dropped.
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
// rows may be missing (a probe relabels only the rows it touches).
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
// on, a's runs grouped by component, and the donor facts of the rows
// scanned so far. The rest is probe scratch.
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
	cands      []diceCand

	// mark[c] == stamp flags component c of a as touched by this probe.
	mark     []uint32
	stamp    uint32
	affected []int
	affRuns  []int
	local    compBuf // the touched runs, relabeled after the probe
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
		if w >= threshER {
			mass += w
			phi += int64(w) * int64(w)
		}
	}
	return mass, phi
}

// diceResidual splits residual exploitable regions by relocating donor
// cells into their longest runs, keeping only moves that strictly reduce
// the global exploitable mass. It returns the number of cells relocated.
func (e *shiftEngine) diceResidual(l *layout.Layout, threshER, maxMoves int) int {
	d := &e.dice
	moves := 0
	// The row cache starts cold: the row passes just moved cells anywhere.
	d.cache.reset(l.NumRows)
	// Attempts (including rejected probes) are bounded separately from
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

// attempt makes one dicing attempt on the labeling d.a, whose potential is
// phi: it picks the target run and probes up to four donors into it,
// keeping the first move that lowers Φ and rolling the others back through
// the journal, so a rejected probe leaves no journal record. It returns
// the target's run id (-1 when none is left) and whether a move was kept.
func (d *diceScratch) attempt(l *layout.Layout, threshER int, phi int64) (ti int, accepted bool) {
	ti = pickTarget(&d.a, threshER, d.skipped)
	if ti < 0 {
		return ti, false
	}
	// A nested journal level: an enclosing journal (CellShift's, an
	// arena's) keeps the kept move's record.
	l.BeginJournal()
	defer l.EndJournal()
	target := &d.a.runs[ti]
	for _, cd := range d.donorCandidates(l, threshER, target, 4) {
		dn := cd.dn
		w := dn.in.Master.WidthSites
		at := splitPosition(target, w, threshER)
		if at < 0 {
			break
		}
		mark := l.JournalMark()
		if err := d.move(l, dn.in, dn.row, dn.site, target.row, at); err != nil {
			continue
		}
		if d.probePhi(l, threshER, phi, target, dn) < phi {
			return ti, true
		}
		// No improvement: revert the layout and the row cache.
		l.RollbackJournal(mark)
		d.cache.vacate(target.row, at, w)
		d.cache.occupy(dn.row, dn.site, w)
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

	if cap(d.mark) < n {
		d.mark = make([]uint32, n)
	}
	d.mark = d.mark[:n]
	for c := range d.mark {
		d.mark[c] = 0
	}
	d.stamp = 0

	if cap(d.donorRows) < l.NumRows {
		d.donorRows = make([][]diceDonor, l.NumRows)
	}
	d.donorRows = d.donorRows[:l.NumRows]
	d.donorValid = sizedFalse(d.donorValid, l.NumRows)
	d.nbComps = d.nbComps[:0]
}

// sizedFalse returns s resized to n with every entry false.
func sizedFalse(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// pickTarget returns the index of the longest run of the heaviest
// exploitable component that has not been given up on, or -1.
func pickTarget(c *compBuf, threshER int, skipped []bool) int {
	best := -1
	bestW := 0
	for i := range c.runs {
		r := &c.runs[i]
		w := c.weights[r.comp]
		if w < threshER || r.length < 3 || skipped[i] {
			continue
		}
		if best < 0 || w > bestW || (w == bestW && r.length > c.runs[best].length) {
			best, bestW = i, w
		}
	}
	return best
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

// donorCandidates collects up to n donor cells: safe donors (vacating them
// creates only sub-threshold gaps) and split donors (cells bordering the
// target component), nearest to the target first. The donor facts come
// from the per-labeling cache, so an attempt only filters by width, tests
// the target component and ranks; a bounded best-n insertion replaces the
// full sort (identical result — the (tier, dist, ID) order is strict and
// total).
func (d *diceScratch) donorCandidates(l *layout.Layout, threshER int, target *fullRun, n int) []diceCand {
	best := d.cands[:0]
	consider := func(cd diceCand) {
		if len(best) == n {
			if !cd.before(best[n-1]) {
				return
			}
			best = best[:n-1]
		}
		i := len(best)
		best = append(best, cd)
		for i > 0 && cd.before(best[i-1]) {
			best[i] = best[i-1]
			i--
		}
		best[i] = cd
	}
	// Donor scan is restricted to a row window around the target: distant
	// donors would pay too much wirelength anyway. A placed cell lives in
	// exactly one row, so the row sweep visits each candidate once.
	const donorRowWindow = 14
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
			dist := abs(dn.row-target.row)*8 + abs(dn.site-target.start)
			consider(diceCand{dn, dist, tier})
		}
	}
	d.cands = best // keep capacity for the next attempt
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

// probePhi returns Φ of the layout after a probe moved donor dn into the
// target run, given Φ of the labeling a (in which the probe is not yet
// made). Only the target's component and the donor's neighbour
// components can change: the vacancy joins exactly the latter, and the
// donor lands inside the former. So Φ' = Φ − Σ old w² + Σ new w² over
// just those components, whose runs are relabeled from a (rows the probe
// did not touch) and the row cache (the two rows it did) — exact in
// int64.
func (d *diceScratch) probePhi(l *layout.Layout, threshER int, phi int64, target *fullRun, dn *diceDonor) int64 {
	d.stamp++
	aff := append(d.affected[:0], target.comp)
	d.mark[target.comp] = d.stamp
	for _, c := range d.nbComps[dn.nb0:dn.nb1] {
		if d.mark[c] != d.stamp {
			d.mark[c] = d.stamp
			aff = append(aff, c)
		}
	}
	lo, hi := dn.row, target.row
	if lo > hi {
		lo, hi = hi, lo
	}
	ids := d.affRuns[:0]
	for _, c := range aff {
		if w := d.a.weights[c]; w >= threshER {
			phi -= int64(w) * int64(w)
		}
		for _, i := range d.compRuns[d.compStart[c]:d.compStart[c+1]] {
			if r := d.a.runs[i].row; r != lo && r != hi {
				ids = append(ids, i)
			}
		}
	}
	slices.Sort(ids)
	d.affected, d.affRuns = aff, ids

	// Merge the touched rows' new runs into the row-major run list.
	loc := &d.local
	loc.runs = loc.runs[:0]
	changed := [2]int{lo, hi}
	nChanged := 2
	if lo == hi {
		nChanged = 1
	}
	k := 0
	for _, i := range ids {
		for ; k < nChanged && changed[k] < d.a.runs[i].row; k++ {
			d.appendTouchedRuns(l, changed[k])
		}
		loc.runs = append(loc.runs, d.a.runs[i])
	}
	for ; k < nChanged; k++ {
		d.appendTouchedRuns(l, changed[k])
	}
	loc.label()
	for i, run := range loc.runs {
		if run.comp == i {
			if w := loc.weights[i]; w >= threshER {
				phi += int64(w) * int64(w)
			}
		}
	}
	return phi
}

// appendTouchedRuns appends to d.local the runs of a row the probe changed
// that belong to the touched components: every run except those identical
// to a run of an untouched component in the labeling (the probe leaves
// those as they were; any other run holds changed sites or sites of a
// touched component).
func (d *diceScratch) appendTouchedRuns(l *layout.Layout, row int) {
	old := d.a.rowRuns(row)
	j := 0
	for _, nr := range d.cache.rowRuns(l, row) {
		for j < len(old) && old[j].start < nr.Start {
			j++
		}
		if j < len(old) && old[j].start == nr.Start && old[j].length == nr.Len && d.mark[old[j].comp] != d.stamp {
			continue
		}
		d.local.runs = append(d.local.runs, fullRun{row: row, start: nr.Start, length: nr.Len})
	}
}
