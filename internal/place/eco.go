package place

import (
	"math/rand"
	"sort"

	"gdsiiguard/internal/fault"
	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/netlist"
)

// densityTracker maintains, for every placement blockage, the number of
// occupied sites inside its region, so blockage-cap checks during cell moves
// are O(blockages on the row) instead of O(region area).
type densityTracker struct {
	l    *layout.Layout
	used []int // occupied sites per blockage
	caps []int // allowed sites per blockage
	// rowStart and rowBlk index the blockages by row: the blockages
	// covering die row r are rowBlk[rowStart[r]:rowStart[r+1]], in
	// ascending order. A cell is one row tall, so only these can overlap
	// it; every other blockage overlaps it by 0.
	rowStart []int32
	rowBlk   []int32
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
	return d
}

// onRow returns the indices of the blockages covering die row r.
func (d *densityTracker) onRow(r int) []int32 {
	return d.rowBlk[d.rowStart[r]:d.rowStart[r+1]]
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
// from, its current placement. row must lie inside the die.
func (d *densityTracker) fits(in *netlist.Instance, from layout.Placement, row, site int) bool {
	if len(d.used) == 0 {
		return true
	}
	for _, i := range d.onRow(row) {
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
				before := cellHPWL(l, in)
				// Evacuation is wirelength-driven: bounded search radius so
				// cells never teleport across the die.
				row, site, ok := nearestFit(l, dens, in, p.Row, p.Site, 120)
				if !ok || (row == p.Row && site == p.Site) {
					continue
				}
				if err := l.Place(in, row, site); err != nil {
					continue
				}
				delta := cellHPWL(l, in) - before
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
