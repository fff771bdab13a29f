package place

import (
	"cmp"
	"math/bits"
	"math/rand"
	"slices"
	"sort"

	"gdsiiguard/internal/fault"
	"gdsiiguard/internal/geom"
	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/netlist"
)

// densityTracker maintains, for every placement blockage, the number of
// occupied sites inside its region, so blockage-cap checks during cell moves
// are O(blockages on the row) instead of O(region area). It also keeps a
// per-row bitset of free sites, which nearestFit searches 64 sites at a time.
type densityTracker struct {
	l    *layout.Layout
	used []int // occupied sites per blockage
	caps []int // allowed sites per blockage
	// rowStart and rowBlk index the blockages by row: the blockages
	// covering die row r are rowBlk[rowStart[r]:rowStart[r+1]], sorted by
	// Site0 (ties by index), and rowSite0 and rowSite1 hold their Site0 and
	// Site1 in the same order. A cell is one row tall, so only these can
	// overlap it; every other blockage overlaps it by 0. rowMaxW[r] is the
	// widest of them, so a blockage overlapping [s, s+w) has Site0 in
	// (s-rowMaxW[r], s+w).
	rowStart []int32
	rowBlk   []int32
	rowSite0 []int
	rowSite1 []int
	rowMaxW  []int
	// free holds one bit per site, words uint64s per row: bit s%64 of
	// free[r*words+s/64] is set iff site (r, s) is unoccupied. Bits past
	// the last site of a row are clear.
	free  []uint64
	words int
	// rowWeight is how many site steps one row step counts as in
	// nearestFit's distance; lattice has bits 0, rowWeight, 2·rowWeight, …
	rowWeight   int
	lattice     uint64
	latticeStep int // 64 mod rowWeight
	// pts, xs and ys are the search's terminal-position buffers
	// (desiredSlot, cellHPWL).
	pts    []geom.Point
	xs, ys []int64
}

func newDensityTracker(l *layout.Layout) *densityTracker {
	d := &densityTracker{l: l}
	for _, b := range l.Blockages {
		area := (b.Row1 - b.Row0) * (b.Site1 - b.Site0)
		used := 0
		for r := b.Row0; r < b.Row1; r++ {
			for s := b.Site0; s < b.Site1; s++ {
				if l.At(r, s) != nil {
					used++
				}
			}
		}
		d.used = append(d.used, used)
		d.caps = append(d.caps, int(float64(area)*b.MaxDensity))
	}
	rows := l.NumRows
	d.rowStart = make([]int32, rows+1)
	for _, b := range l.Blockages {
		for r := max(b.Row0, 0); r < min(b.Row1, rows); r++ {
			d.rowStart[r+1]++
		}
	}
	for r := 0; r < rows; r++ {
		d.rowStart[r+1] += d.rowStart[r]
	}
	d.rowBlk = make([]int32, d.rowStart[rows])
	next := append([]int32(nil), d.rowStart[:rows]...)
	for i, b := range l.Blockages {
		for r := max(b.Row0, 0); r < min(b.Row1, rows); r++ {
			d.rowBlk[next[r]] = int32(i)
			next[r]++
		}
	}
	d.rowSite0 = make([]int, len(d.rowBlk))
	d.rowSite1 = make([]int, len(d.rowBlk))
	d.rowMaxW = make([]int, rows)
	for r := 0; r < rows; r++ {
		blk := d.rowBlk[d.rowStart[r]:d.rowStart[r+1]]
		slices.SortStableFunc(blk, func(i, j int32) int {
			return cmp.Compare(l.Blockages[i].Site0, l.Blockages[j].Site0)
		})
		for k, i := range blk {
			b := l.Blockages[i]
			d.rowSite0[int(d.rowStart[r])+k] = b.Site0
			d.rowSite1[int(d.rowStart[r])+k] = b.Site1
			d.rowMaxW[r] = max(d.rowMaxW[r], b.Site1-b.Site0)
		}
	}

	d.words = (l.SitesPerRow + 63) / 64
	d.free = make([]uint64, rows*d.words)
	for r := 0; r < rows; r++ {
		for s := 0; s < l.SitesPerRow; s++ {
			if l.Free(r, s) {
				d.free[r*d.words+s/64] |= 1 << (s % 64)
			}
		}
	}
	d.rowWeight = max(int(l.Lib().Site.Height/l.Lib().Site.Width), 1)
	for i := 0; i < 64; i += d.rowWeight {
		d.lattice |= 1 << i
	}
	d.latticeStep = 64 % d.rowWeight
	return d
}

// onRow returns the indices of the blockages covering die row r, sorted by
// Site0.
func (d *densityTracker) onRow(r int) []int32 {
	return d.rowBlk[d.rowStart[r]:d.rowStart[r+1]]
}

// firstAt returns the position in rowBlk of row r's first blockage with
// Site0 ≥ s (rowStart[r+1] if none).
func (d *densityTracker) firstAt(r, s int) int {
	lo, hi := int(d.rowStart[r]), int(d.rowStart[r+1])
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if d.rowSite0[m] < s {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// overlap returns how many sites of the cell at (row, site) fall inside
// blockage i.
func (d *densityTracker) overlap(in *netlist.Instance, row, site int, i int32) int {
	b := d.l.Blockages[i]
	if row < b.Row0 || row >= b.Row1 {
		return 0
	}
	lo, hi := site, site+in.Master.WidthSites
	if lo < b.Site0 {
		lo = b.Site0
	}
	if hi > b.Site1 {
		hi = b.Site1
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// fits reports whether placing the cell at (row, site) keeps every blockage
// at or under its cap, accounting for the sites the cell would vacate at
// from, its current placement. row must lie inside the die. Only the
// blockages of the row whose Site0 can reach [site, site+w) are visited;
// the rest overlap the cell by 0.
func (d *densityTracker) fits(in *netlist.Instance, from layout.Placement, row, site int) bool {
	if len(d.used) == 0 {
		return true
	}
	end := site + in.Master.WidthSites
	for k, hi := d.firstAt(row, site-d.rowMaxW[row]+1), int(d.rowStart[row+1]); k < hi && d.rowSite0[k] < end; k++ {
		i := d.rowBlk[k]
		add := d.overlap(in, row, site, i)
		if add == 0 {
			continue
		}
		cur := 0
		if from.Placed {
			cur = d.overlap(in, from.Row, from.Site, i)
		}
		if d.used[i]-cur+add > d.caps[i] {
			return false
		}
	}
	return true
}

// move updates the tracker after a cell relocation between two die rows.
func (d *densityTracker) move(in *netlist.Instance, oldRow, oldSite, newRow, newSite int) {
	for _, i := range d.onRow(oldRow) {
		d.used[i] -= d.overlap(in, oldRow, oldSite, i)
	}
	for _, i := range d.onRow(newRow) {
		d.used[i] += d.overlap(in, newRow, newSite, i)
	}
	w := in.Master.WidthSites
	for s := oldSite; s < oldSite+w; s++ {
		d.free[oldRow*d.words+s/64] |= 1 << (s % 64)
	}
	for s := newSite; s < newSite+w; s++ {
		d.free[newRow*d.words+s/64] &^= 1 << (s % 64)
	}
}

// bitRange returns the bits [a, b) of a word, clamped to [0, 64).
func bitRange(a, b int) uint64 {
	a, b = max(a, 0), min(b, 64)
	if a >= b {
		return 0
	}
	return ^uint64(0) >> uint(64-(b-a)) << uint(a)
}

// fitSearch is one nearestFit query: the cell, where it sits now, and the
// sites it may treat as free because it occupies them itself.
type fitSearch struct {
	d              *densityTracker
	in             *netlist.Instance
	from           layout.Placement
	w              int
	selfLo, selfHi int // the cell's own sites on selfRow
	selfRow        int
}

// window returns the free bits of sites [pos, pos+64) and [pos+64,
// pos+128) of row r: bit t of lo is set iff site pos+t is inside the die
// and unoccupied, or one of the cell's own sites, which CanPlace counts as
// free too; hi likewise for site pos+64+t.
func (q *fitSearch) window(r, pos int) (lo, hi uint64) {
	d := q.d
	row := d.free[r*d.words : (r+1)*d.words]
	k, o := pos>>6, uint(pos&63) // floor division, also for pos < 0
	var w [3]uint64
	for i := range w {
		if k+i >= 0 && k+i < len(row) {
			w[i] = row[k+i]
		}
	}
	lo, hi = w[0], w[1]
	if o != 0 {
		lo, hi = w[0]>>o|w[1]<<(64-o), w[1]>>o|w[2]<<(64-o)
	}
	if r == q.selfRow {
		lo |= bitRange(q.selfLo-pos, q.selfHi-pos)
		hi |= bitRange(q.selfLo-pos-64, q.selfHi-pos-64)
	}
	return lo, hi
}

// candidates returns the positions s in [pos, pos+64) of row r (bit s-pos)
// that are set in want, have the cell's w sites inside the die and free,
// and are not wholly inside a blockage without room for w more sites.
// Every position of want that CanPlace and fits accept is in the mask.
func (q *fitSearch) candidates(r, pos int, want uint64) uint64 {
	if want == 0 {
		return 0
	}
	d, w := q.d, q.w
	lo, hi := q.window(r, pos)
	m := want & lo & bitRange(-pos, d.l.SitesPerRow-w+1-pos)
	for t := 1; t < w && m != 0; t++ {
		if t < 64 {
			m &= lo>>uint(t) | hi<<uint(64-t)
		} else {
			far, _ := q.window(r, pos+t)
			m &= far
		}
	}
	if m == 0 || len(d.used) == 0 {
		return m
	}
	// A position wholly inside blockage i adds w sites to it, which fits
	// refuses when the blockage cannot take them. Such positions are
	// [Site0, Site1-w]; only blockages whose range can hold a survivor
	// (first at pos+first, last at pos+last) are visited.
	first, last := bits.TrailingZeros64(m), 63-bits.LeadingZeros64(m)
	for k, end := d.firstAt(r, pos+first+w-d.rowMaxW[r]), int(d.rowStart[r+1]); k < end && d.rowSite0[k] <= pos+last; k++ {
		i := d.rowBlk[k]
		if d.used[i]+w <= d.caps[i] || d.rowSite1[k]-w < pos+first {
			continue
		}
		cur := 0
		if q.from.Placed {
			cur = d.overlap(q.in, q.from.Row, q.from.Site, i)
		}
		if d.used[i]-cur+w > d.caps[i] {
			if m &^= bitRange(d.rowSite0[k]-pos, d.rowSite1[k]-w+1-pos); m == 0 {
				break
			}
		}
	}
	return m
}

// row returns the nearest position of row r that CanPlace and fits accept
// among ts ± j·rowWeight for jmin ≤ j ≤ jlim, and its j; at equal j the
// minus side wins. The masks are built 64 sites of distance at a time,
// outward from ts, and the plus side only below the nearest minus-side
// fit, so a near hit costs a word or two.
func (q *fitSearch) row(r, ts, jmin, jlim int) (site, j int, ok bool) {
	d := q.d
	rw := d.rowWeight
	maxDist := jlim * rw
	// Bit i of pm is distance base+i, site ts+base+i; bit t of mm is
	// distance base+63-t, site ts-base-63+t. plusOff and minusOff are the
	// lowest lattice bits of each: base starts on the lattice and steps 64.
	plusOff, minusOff := 0, 63%rw
	for base := jmin * rw; base <= maxDist; base += 64 {
		minus := ts-base >= 0
		plus := ts+base+q.w <= d.l.SitesPerRow
		if !minus && !plus {
			break
		}
		hit := 64 // distance base+hit holds the nearest minus-side fit
		if minus {
			want := d.lattice << uint(minusOff)
			if maxDist-base < 63 {
				want &^= 1<<uint(63-(maxDist-base)) - 1
			}
			for m := q.candidates(r, ts-base-63, want); m != 0; {
				t := 63 - bits.LeadingZeros64(m)
				if d.fits(q.in, q.from, r, ts-base-63+t) {
					hit = 63 - t
					break
				}
				m &^= 1 << uint(t)
			}
		}
		if want := d.lattice << uint(plusOff) & (1<<uint(min(hit, maxDist-base+1)) - 1); plus && want != 0 {
			if base == 0 {
				want &^= 1 // ts itself is probed once, as the minus side
			}
			for m := q.candidates(r, ts+base, want); m != 0; m &= m - 1 {
				if i := bits.TrailingZeros64(m); d.fits(q.in, q.from, r, ts+base+i) {
					return ts + base + i, (base + i) / rw, true
				}
			}
		}
		if hit < 64 {
			return ts - base - hit, (base + hit) / rw, true
		}
		if plusOff -= d.latticeStep; plusOff < 0 {
			plusOff += rw
		}
		if minusOff += d.latticeStep; minusOff >= rw {
			minusOff -= rw
		}
	}
	return 0, 0, false
}

// overfull returns indices of blockages currently above their caps.
func (d *densityTracker) overfull() []int {
	var out []int
	for i := range d.used {
		if d.used[i] > d.caps[i] {
			out = append(out, i)
		}
	}
	return out
}

// ECOResult reports the outcome of a blockage-driven ECO placement run.
type ECOResult struct {
	// Moved is the number of cells relocated.
	Moved int
	// Satisfied reports whether every blockage ended at or below its cap.
	Satisfied bool
}

// ECO incrementally legalizes the layout against its placement blockages:
// cells are evacuated from over-capacity blockage regions to the nearby
// free positions that increase wirelength least. Fixed cells never move.
// This is the "Run ECO placement" step of the LDA operator (Algorithm 2).
func ECO(l *layout.Layout, seed int64) ECOResult {
	// ECO has no error return, so an armed fault here surfaces as a panic
	// and is contained by the flow's operator-stage recovery.
	if err := fault.Hit(fault.PlaceECO); err != nil {
		panic(err)
	}
	dens := newDensityTracker(l)
	rng := rand.New(rand.NewSource(seed))
	res := ECOResult{}
	const maxCandidates = 24

	for _, bi := range dens.overfull() {
		b := l.Blockages[bi]
		for dens.used[bi] > dens.caps[bi] {
			cells := movableCellsInRegion(l, b)
			if len(cells) == 0 {
				break
			}
			rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
			if len(cells) > maxCandidates {
				cells = cells[:maxCandidates]
			}
			// Pick the evacuation with the smallest HPWL penalty.
			type cand struct {
				in        *netlist.Instance
				row, site int
				delta     int64
			}
			best := cand{delta: 1 << 62}
			found := false
			for _, in := range cells {
				p := l.PlacementOf(in)
				before := cellHPWL(l, dens, in)
				// Evacuation is wirelength-driven: bounded search radius so
				// cells never teleport across the die.
				row, site, ok := nearestFit(l, dens, in, p.Row, p.Site, 120)
				if !ok || (row == p.Row && site == p.Site) {
					continue
				}
				if err := l.Place(in, row, site); err != nil {
					continue
				}
				delta := cellHPWL(l, dens, in) - before
				_ = l.Place(in, p.Row, p.Site) // revert probe
				if delta < best.delta {
					best = cand{in: in, row: row, site: site, delta: delta}
					found = true
				}
			}
			if !found {
				break
			}
			p := l.PlacementOf(best.in)
			if err := l.Place(best.in, best.row, best.site); err != nil {
				break
			}
			dens.move(best.in, p.Row, p.Site, best.row, best.site)
			res.Moved++
		}
	}
	res.Satisfied = len(dens.overfull()) == 0
	return res
}

// movableCellsInRegion returns the non-fixed functional cells occupying at
// least one site of the blockage region, widest first (evacuating
// wide cells frees density fastest).
func movableCellsInRegion(l *layout.Layout, b layout.Blockage) []*netlist.Instance {
	var out []*netlist.Instance
	for r := b.Row0; r < b.Row1; r++ {
		// A cell's sites are contiguous within its one row, so comparing
		// against the previous instance seen in the row dedupes it.
		var prev *netlist.Instance
		for s := b.Site0; s < b.Site1; s++ {
			in := l.At(r, s)
			if in == nil || in == prev {
				continue
			}
			prev = in
			if in.Fixed || !in.Master.IsFunctional() {
				continue
			}
			out = append(out, in)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Master.WidthSites != out[j].Master.WidthSites {
			return out[i].Master.WidthSites > out[j].Master.WidthSites
		}
		return out[i].ID < out[j].ID
	})
	return out
}
