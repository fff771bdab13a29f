// Package place provides the placement engines of the flow:
//
//   - Global: constructive initial placement (connectivity-clustered
//     snake fill to a target utilization) followed by wirelength-driven
//     refinement — the stand-in for a full global placer.
//   - Refine: incremental wirelength-driven improvement used standalone
//     and as the "ECO placement" step of the LDA operator; it honors
//     partial placement blockages and fixed cells.
//   - ECO: blockage-driven incremental placement that evacuates cells from
//     over-capacity blockage regions with minimal wirelength impact.
//
// All engines are deterministic for a given seed.
package place

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"gdsiiguard/internal/geom"
	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/netlist"
)

// GlobalOptions configures initial placement.
type GlobalOptions struct {
	// TargetUtil is the desired core utilization in (0,1].
	TargetUtil float64
	// RefinePasses is the number of wirelength refinement sweeps after
	// constructive placement.
	RefinePasses int
	// Seed drives all randomized tie-breaking.
	Seed int64
}

// Global builds a placed layout for the netlist at the target utilization.
func Global(nl *netlist.Netlist, opt GlobalOptions) (*layout.Layout, error) {
	if opt.TargetUtil <= 0 || opt.TargetUtil > 1 {
		return nil, fmt.Errorf("place: target utilization %g out of (0,1]", opt.TargetUtil)
	}
	var cellSites int64
	for _, in := range nl.Insts {
		if in.Master.IsFunctional() {
			cellSites += int64(in.Master.WidthSites)
		}
	}
	if cellSites == 0 {
		return nil, fmt.Errorf("place: netlist %q has no functional cells", nl.Name)
	}
	totalSites := float64(cellSites) / opt.TargetUtil
	site := nl.Lib.Site
	// A square die: rows*H = sitesPerRow*W and rows*sitesPerRow = totalSites.
	rows := int(math.Sqrt(totalSites*float64(site.Width)/float64(site.Height))) + 1
	if rows < 1 {
		rows = 1
	}
	sitesPerRow := int(totalSites/float64(rows)) + 1
	// Ensure the widest cell fits.
	maxW := 0
	for _, in := range nl.Insts {
		if in.Master.WidthSites > maxW {
			maxW = in.Master.WidthSites
		}
	}
	if sitesPerRow < maxW {
		sitesPerRow = maxW
	}
	l, err := layout.New(nl, rows, sitesPerRow)
	if err != nil {
		return nil, err
	}
	l.SpreadPorts()

	rng := rand.New(rand.NewSource(opt.Seed))
	var toPlace []*netlist.Instance
	for _, in := range nl.Insts {
		if in.Master.IsFunctional() {
			toPlace = append(toPlace, in)
		}
	}
	if err := bisectPlace(l, toPlace, rng); err != nil {
		return nil, err
	}
	for p := 0; p < opt.RefinePasses; p++ {
		Refine(l, rng.Int63())
	}
	return l, nil
}

// Refine performs one wirelength-driven ECO placement sweep, in an order
// seed shuffles: every movable cell is tried at the free slot nearest the
// median of its connected pins, however far, and moved when total HPWL
// improves and no blockage cap is violated. It returns the number of cells
// moved.
func Refine(l *layout.Layout, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	cells := movableCells(l)
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	dens := newDensityTracker(l)
	moved := 0
	for _, in := range cells {
		if tryImproveCell(l, dens, in) {
			moved++
		}
	}
	return moved
}

func movableCells(l *layout.Layout) []*netlist.Instance {
	var out []*netlist.Instance
	for _, in := range l.Netlist.Insts {
		if in.Master.IsFunctional() && !in.Fixed && l.PlacementOf(in).Placed {
			out = append(out, in)
		}
	}
	return out
}

// tryImproveCell moves in toward the median of its nets if that lowers its
// connected HPWL; returns true when moved.
func tryImproveCell(l *layout.Layout, dens *densityTracker, in *netlist.Instance) bool {
	tr, ts, ok := desiredSlot(l, dens, in)
	if !ok {
		return false
	}
	p := l.PlacementOf(in)
	before := cellHPWL(l, dens, in)
	row, site, ok := nearestFit(l, dens, in, tr, ts, 0)
	if !ok || (row == p.Row && site == p.Site) {
		return false
	}
	old := p
	if err := l.Place(in, row, site); err != nil {
		return false
	}
	after := cellHPWL(l, dens, in)
	if after >= before {
		_ = l.Place(in, old.Row, old.Site) // revert
		return false
	}
	dens.move(in, old.Row, old.Site, row, site)
	return true
}

// desiredSlot returns the median row/site of the cell's connected terminal
// positions. The positions and their coordinates go to dens's buffers.
func desiredSlot(l *layout.Layout, dens *densityTracker, in *netlist.Instance) (row, site int, ok bool) {
	pts := dens.pts[:0]
	for _, c := range in.Conns {
		if c.Net == nil || c.Net.IsClock {
			continue
		}
		pts = l.AppendNetTermPoints(pts, c.Net)
	}
	dens.pts = pts
	if len(pts) == 0 {
		return 0, 0, false
	}
	xs, ys := dens.xs[:0], dens.ys[:0]
	for _, pt := range pts {
		xs = append(xs, pt.X)
		ys = append(ys, pt.Y)
	}
	dens.xs, dens.ys = xs, ys
	// Equal coordinates are equal integers, so the median does not depend
	// on the sort's stability.
	slices.Sort(xs)
	slices.Sort(ys)
	mx, my := xs[len(xs)/2], ys[len(ys)/2]
	site = int((mx - l.Origin.X) / l.Lib().Site.Width)
	row = int((my - l.Origin.Y) / l.Lib().Site.Height)
	if row < 0 {
		row = 0
	}
	if row >= l.NumRows {
		row = l.NumRows - 1
	}
	if site < 0 {
		site = 0
	}
	if site >= l.SitesPerRow {
		site = l.SitesPerRow - 1
	}
	return row, site, true
}

// cellHPWL sums the HPWL of all signal nets touching the cell, reading
// each net's terminal positions into dens's buffer.
func cellHPWL(l *layout.Layout, dens *densityTracker, in *netlist.Instance) int64 {
	var total int64
	for _, c := range in.Conns {
		if c.Net != nil && !c.Net.IsClock {
			dens.pts = l.AppendNetTermPoints(dens.pts[:0], c.Net)
			total += geom.HPWL(dens.pts)
		}
	}
	return total
}

// nearestFit searches outward from (tr, ts) for a position where the cell
// fits and all blockage caps stay satisfied, and returns the first one in
// ring order. Rows are weighted by the site aspect ratio (one row step ≈
// rowWeight site steps), and the ring radius grows in steps of rowWeight,
// so a row dr rows away holds candidates only at sites ts ± j·rowWeight,
// in ring |dr|+j: the result is not the closest free position, and a free
// slot next to the target can be missed. Positions are ordered by (ring,
// dr, minus side first), rings go up to maxRadius/rowWeight (maxRadius 0
// means the whole die), and only rows inside the die are searched. The
// cell's own sites count as free, as CanPlace counts them.
//
// The first nearRings rings are probed one position at a time, in that
// order: they hold few positions, and most Refine searches end in them.
// Past them the search is word-parallel. For each row, in order of
// increasing |dr|, the tracker's free-site bitset gives the candidates 64
// sites of distance at a time, outward from ts (w free sites, on the
// lattice, not wholly inside a blockage without room), and only those
// reach fits. A row stops at its nearest survivor that fits, rows farther
// than the best ring found are not searched, and rings are taken in bands
// of bandSites of distance so that no row is searched far past the
// nearest ring with a fit. A search that fails, as most of ECO's do, thus
// costs words of candidates rather than probes. TestNearestFitMatchesProbe
// and FuzzNearestFit hold it to the ring probe it replaced.
func nearestFit(l *layout.Layout, dens *densityTracker, in *netlist.Instance, tr, ts, maxRadius int) (int, int, bool) {
	return nearestFitProbing(l, dens, in, tr, ts, maxRadius, nearRings)
}

const (
	// nearRings is how many rings nearestFit probes one position at a time.
	nearRings = 8
	// bandSites is the distance, in sites, of one band of rings.
	bandSites = 256
)

// nearestFitProbing is nearestFit with the first near rings probed one
// position at a time; any near gives the same answer.
func nearestFitProbing(l *layout.Layout, dens *densityTracker, in *netlist.Instance, tr, ts, maxRadius, near int) (int, int, bool) {
	rw := dens.rowWeight
	limit := l.SitesPerRow + l.NumRows*rw
	if maxRadius > 0 && maxRadius < limit {
		limit = maxRadius
	}
	rings := limit / rw
	q := fitSearch{d: dens, in: in, from: l.PlacementOf(in), w: in.Master.WidthSites, selfRow: -1}
	if q.from.Placed {
		q.selfRow, q.selfLo, q.selfHi = q.from.Row, q.from.Site, q.from.Site+q.w
	}
	near = min(near, rings+1)
	for d := 0; d < near; d++ {
		for dr := max(-d, -tr); dr <= min(d, l.NumRows-1-tr); dr++ {
			r, span := tr+dr, (d-abs(dr))*rw
			for _, s := range [2]int{ts - span, ts + span} {
				if s >= 0 && s+q.w <= l.SitesPerRow && l.CanPlace(in, r, s) && dens.fits(in, q.from, r, s) {
					return r, s, true
				}
				if span == 0 {
					break // ts-0 and ts+0 are the same site
				}
			}
		}
	}
	band := max(bandSites/rw, 1)
	bestRing, bestDr, bestRow, bestSite := rings+1, 0, 0, 0
	for lo := near; lo <= rings && bestRing > rings; lo += band {
		hi := min(lo+band-1, rings)
		for a := 0; a <= hi && a <= bestRing; a++ {
			for _, dr := range [2]int{-a, a} {
				r := tr + dr
				if r < 0 || r >= l.NumRows {
					continue
				}
				site, j, ok := q.row(r, ts, max(lo-a, 0), min(hi, bestRing)-a)
				// j ≤ bestRing-a, so only an equal ring with a smaller dr ties.
				if ok && (a+j < bestRing || dr < bestDr) {
					bestRing, bestDr, bestRow, bestSite = a+j, dr, r, site
				}
				if a == 0 {
					break
				}
			}
		}
	}
	return bestRow, bestSite, bestRing <= rings
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
