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
	"sort"

	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/netlist"
)

// GlobalOptions configures initial placement.
type GlobalOptions struct {
	// TargetUtil is the desired core utilization in (0,1].
	TargetUtil float64
	// AspectRatio is core height/width in DBU (1.0 = square die).
	AspectRatio float64
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
	if opt.AspectRatio <= 0 {
		opt.AspectRatio = 1.0
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
	// rows*H = aspect * sitesPerRow*W  and  rows*sitesPerRow = totalSites.
	rows := int(math.Sqrt(totalSites*opt.AspectRatio*float64(site.Width)/float64(site.Height))) + 1
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
		Refine(l, RefineOptions{MaxMoveRadius: 0, Seed: rng.Int63()})
	}
	return l, nil
}

// RefineOptions configures a wirelength refinement sweep.
type RefineOptions struct {
	// MaxMoveRadius bounds how far (in sites, Manhattan over row/site
	// deltas with rows weighted by the site aspect) a cell may move in one
	// step; 0 means unbounded.
	MaxMoveRadius int
	// Seed orders the sweep.
	Seed int64
}

// Refine performs one wirelength-driven ECO placement sweep: every movable
// cell is tried at the free slot nearest the median of its connected pins,
// and moved when total HPWL improves and no blockage cap is violated.
// It returns the number of cells moved.
func Refine(l *layout.Layout, opt RefineOptions) int {
	rng := rand.New(rand.NewSource(opt.Seed))
	cells := movableCells(l)
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	dens := newDensityTracker(l)
	moved := 0
	for _, in := range cells {
		if tryImproveCell(l, dens, in, opt.MaxMoveRadius) {
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
func tryImproveCell(l *layout.Layout, dens *densityTracker, in *netlist.Instance, maxRadius int) bool {
	tr, ts, ok := desiredSlot(l, in)
	if !ok {
		return false
	}
	p := l.PlacementOf(in)
	before := cellHPWL(l, in)
	row, site, ok := nearestFit(l, dens, in, tr, ts, maxRadius)
	if !ok || (row == p.Row && site == p.Site) {
		return false
	}
	old := p
	if err := l.Place(in, row, site); err != nil {
		return false
	}
	after := cellHPWL(l, in)
	if after >= before {
		_ = l.Place(in, old.Row, old.Site) // revert
		return false
	}
	dens.move(in, old.Row, old.Site, row, site)
	return true
}

// desiredSlot returns the median row/site of the cell's connected terminal
// positions.
func desiredSlot(l *layout.Layout, in *netlist.Instance) (row, site int, ok bool) {
	var xs, ys []int64
	for _, c := range in.Conns {
		if c.Net == nil || c.Net.IsClock {
			continue
		}
		for _, pt := range l.NetTermPoints(c.Net) {
			xs = append(xs, pt.X)
			ys = append(ys, pt.Y)
		}
	}
	if len(xs) == 0 {
		return 0, 0, false
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	sort.Slice(ys, func(i, j int) bool { return ys[i] < ys[j] })
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

// cellHPWL sums the HPWL of all signal nets touching the cell.
func cellHPWL(l *layout.Layout, in *netlist.Instance) int64 {
	var total int64
	for _, c := range in.Conns {
		if c.Net != nil && !c.Net.IsClock {
			total += l.NetHPWL(c.Net)
		}
	}
	return total
}

// nearestFit searches outward from (tr, ts) for a position where the cell
// fits and all blockage caps stay satisfied, and returns the first one
// found. The search expands in rings of growing site distance; rows are
// weighted by the site aspect ratio (one row step ≈ rowWeight site steps),
// and within a ring rows are visited in ascending order. The ring radius
// grows in steps of rowWeight, so a row dr rows away is probed only at
// sites ts ± (radius − |dr|·rowWeight), i.e. ts ± k·rowWeight: the result
// is not the closest free position, and a free slot next to the target can
// be missed. Only rows inside the die are probed.
func nearestFit(l *layout.Layout, dens *densityTracker, in *netlist.Instance, tr, ts, maxRadius int) (int, int, bool) {
	rowWeight := int(l.Lib().Site.Height / l.Lib().Site.Width)
	if rowWeight < 1 {
		rowWeight = 1
	}
	limit := l.SitesPerRow + l.NumRows*rowWeight
	if maxRadius > 0 && maxRadius < limit {
		limit = maxRadius
	}
	from := l.PlacementOf(in)
	w := in.Master.WidthSites
	for radius := 0; radius <= limit; radius += rowWeight {
		k := radius / rowWeight
		for dr := max(-k, -tr); dr <= min(k, l.NumRows-1-tr); dr++ {
			r := tr + dr
			span := radius - abs(dr)*rowWeight
			sites := [2]int{ts - span, ts + span}
			n := 2
			if span == 0 {
				n = 1 // ts-0 and ts+0 are the same site
			}
			for _, s := range sites[:n] {
				if s < 0 || s+w > l.SitesPerRow {
					continue
				}
				if l.CanPlace(in, r, s) && dens.fits(in, from, r, s) {
					return r, s, true
				}
			}
		}
	}
	return 0, 0, false
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
