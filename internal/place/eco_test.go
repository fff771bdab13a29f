package place

import (
	"math/rand"
	"testing"

	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/netlist"
)

// scanOverlap, scanFits and scanMove are the density tracker's cap checks
// as they were before the row index: every blockage is examined for every
// probe and every move. They are the reference the indexed tracker must
// match.
func scanOverlap(l *layout.Layout, in *netlist.Instance, row, site, i int) int {
	b := l.Blockages[i]
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

func scanFits(d *densityTracker, in *netlist.Instance, row, site int) bool {
	if len(d.used) == 0 {
		return true
	}
	p := d.l.PlacementOf(in)
	for i := range d.used {
		add := scanOverlap(d.l, in, row, site, i)
		if add == 0 {
			continue
		}
		cur := 0
		if p.Placed {
			cur = scanOverlap(d.l, in, p.Row, p.Site, i)
		}
		if d.used[i]-cur+add > d.caps[i] {
			return false
		}
	}
	return true
}

func scanMove(d *densityTracker, in *netlist.Instance, oldRow, oldSite, newRow, newSite int) {
	for i := range d.used {
		d.used[i] += scanOverlap(d.l, in, newRow, newSite, i) - scanOverlap(d.l, in, oldRow, oldSite, i)
	}
}

// scanUsed counts the occupied sites of blockage b from scratch.
func scanUsed(l *layout.Layout, b layout.Blockage) int {
	n := 0
	for r := b.Row0; r < b.Row1; r++ {
		for s := b.Site0; s < b.Site1; s++ {
			if l.At(r, s) != nil {
				n++
			}
		}
	}
	return n
}

// randomBlockages installs a mix of blockage shapes on l: an LDA-shaped
// tiling whose last row and column of tiles are clipped by the die,
// overlapping rectangles that may stick out of the die, single-row strips,
// zero-area blockages, and one blockage appended unclipped so the row
// index must clamp it to the die itself.
func randomBlockages(l *layout.Layout, rng *rand.Rand) {
	density := func() float64 { return 0.1 + 0.8*rng.Float64() }
	gridN := 2 + rng.Intn(4)
	rowsPer := (l.NumRows + gridN - 1) / gridN
	sitesPer := (l.SitesPerRow + gridN - 1) / gridN
	for gi := 0; gi < gridN; gi++ {
		for gj := 0; gj < gridN; gj++ {
			l.AddBlockage(layout.Blockage{
				Row0: gi * rowsPer, Row1: (gi + 1) * rowsPer,
				Site0: gj * sitesPer, Site1: (gj + 1) * sitesPer,
				MaxDensity: density(),
			})
		}
	}
	for k := 0; k < 4; k++ {
		r0, s0 := rng.Intn(l.NumRows+2)-1, rng.Intn(l.SitesPerRow+4)-2
		l.AddBlockage(layout.Blockage{
			Row0: r0, Row1: r0 + 1 + rng.Intn(l.NumRows),
			Site0: s0, Site1: s0 + 1 + rng.Intn(l.SitesPerRow),
			MaxDensity: density(),
		})
	}
	for k := 0; k < 3; k++ {
		r, s0 := rng.Intn(l.NumRows), rng.Intn(l.SitesPerRow)
		l.AddBlockage(layout.Blockage{
			Row0: r, Row1: r + 1,
			Site0: s0, Site1: s0 + 1 + rng.Intn(l.SitesPerRow-s0),
			MaxDensity: density(),
		})
	}
	r, s := rng.Intn(l.NumRows), rng.Intn(l.SitesPerRow)
	l.AddBlockage(layout.Blockage{Row0: r, Row1: r, Site0: 0, Site1: l.SitesPerRow, MaxDensity: 0})
	l.AddBlockage(layout.Blockage{Row0: 0, Row1: l.NumRows, Site0: s, Site1: s, MaxDensity: 0})
	l.Blockages = append(l.Blockages, layout.Blockage{
		Row0: -2, Row1: l.NumRows/2 + 1, Site0: -3, Site1: l.SitesPerRow/2 + 1,
		MaxDensity: density(),
	})
}

// checkFreeBits requires the tracker's free-site bitset to equal l.Free at
// every site, with the bits past each row's last site clear.
func checkFreeBits(t *testing.T, d *densityTracker) {
	t.Helper()
	l := d.l
	for r := 0; r < l.NumRows; r++ {
		for s := 0; s < d.words*64; s++ {
			got := d.free[r*d.words+s/64]>>(s%64)&1 != 0
			if want := l.Free(r, s); got != want {
				t.Fatalf("free bit (%d, %d) = %v, layout says %v", r, s, got, want)
			}
		}
	}
}

// TestDensityTrackerMatchesScan drives the row-indexed tracker and the
// all-blockage reference through the same random sequences of cell moves
// on randomized layouts. After every move, fits must agree with the
// reference for every movable cell at every in-die (row, site) where the
// cell fits the row, both trackers' occupancy must equal a from-scratch
// count, and the free-site bitset must equal l.Free.
func TestDensityTrackerMatchesScan(t *testing.T) {
	seeds, steps := 6, 30
	if testing.Short() {
		seeds, steps = 2, 10
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		nl := chainNetlist(t, 3+rng.Intn(3), 6+rng.Intn(8))
		l, err := Global(nl, GlobalOptions{TargetUtil: 0.5 + 0.35*rng.Float64(), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		randomBlockages(l, rng)
		idx, ref := newDensityTracker(l), newDensityTracker(l)
		cells := movableCells(l)
		accepted, refused := 0, 0
		for step := 0; step <= steps; step++ {
			checkFreeBits(t, idx)
			for i, b := range l.Blockages {
				if want := scanUsed(l, b); idx.used[i] != want || ref.used[i] != want {
					t.Fatalf("seed %d step %d: blockage %d %+v used %d (reference %d), counted %d",
						seed, step, i, b, idx.used[i], ref.used[i], want)
				}
			}
			for _, in := range cells {
				from := l.PlacementOf(in)
				for r := 0; r < l.NumRows; r++ {
					for s := 0; s+in.Master.WidthSites <= l.SitesPerRow; s++ {
						got, want := idx.fits(in, from, r, s), scanFits(ref, in, r, s)
						if got != want {
							t.Fatalf("seed %d step %d: fits(%s at %+v -> (%d, %d)) = %v, reference %v",
								seed, step, in.Name, from, r, s, got, want)
						}
						if got {
							accepted++
						} else {
							refused++
						}
					}
				}
			}
			// One random legal move of a random movable cell.
			in := cells[rng.Intn(len(cells))]
			old := l.PlacementOf(in)
			for try := 0; try < 50; try++ {
				r, s := rng.Intn(l.NumRows), rng.Intn(l.SitesPerRow)
				if (r == old.Row && s == old.Site) || !l.CanPlace(in, r, s) {
					continue
				}
				if err := l.Place(in, r, s); err != nil {
					t.Fatal(err)
				}
				idx.move(in, old.Row, old.Site, r, s)
				scanMove(ref, in, old.Row, old.Site, r, s)
				break
			}
		}
		if accepted == 0 || refused == 0 {
			t.Fatalf("seed %d: fixture must both accept and refuse positions: accepted %d, refused %d",
				seed, accepted, refused)
		}
	}
}

// capTiledLayout is a placed layout under an 8×8 LDA-shaped blockage tiling,
// with one of its movable cells.
func capTiledLayout(t *testing.T) (*layout.Layout, *netlist.Instance) {
	nl := chainNetlist(t, 6, 20)
	l, err := Global(nl, GlobalOptions{TargetUtil: 0.7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	addTiling(l, 8, fixedCap)
	return l, movableCells(l)[0]
}

// fixedCap is the cap of tile (gi, gj) in capTiledLayout's tiling.
func fixedCap(gi, gj int) float64 { return 0.3 + 0.05*float64((gi+gj)%8) }

// addTiling installs an LDA-shaped gridN×gridN tiling of blockages, tile
// (gi, gj) capped at density(gi, gj), the last row and column of tiles
// clipped by the die.
func addTiling(l *layout.Layout, gridN int, density func(gi, gj int) float64) {
	rowsPer := (l.NumRows + gridN - 1) / gridN
	sitesPer := (l.SitesPerRow + gridN - 1) / gridN
	for gi := 0; gi < gridN; gi++ {
		for gj := 0; gj < gridN; gj++ {
			l.AddBlockage(layout.Blockage{
				Row0: gi * rowsPer, Row1: (gi + 1) * rowsPer,
				Site0: gj * sitesPer, Site1: (gj + 1) * sitesPer,
				MaxDensity: density(gi, gj),
			})
		}
	}
}

func TestDensityTrackerFitsAllocatesNothing(t *testing.T) {
	l, in := capTiledLayout(t)
	d := newDensityTracker(l)
	from := l.PlacementOf(in)
	allocs := testing.AllocsPerRun(20, func() {
		for r := 0; r < l.NumRows; r++ {
			for s := 0; s+in.Master.WidthSites <= l.SitesPerRow; s++ {
				d.fits(in, from, r, s)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("fits allocates %v times per sweep, want 0", allocs)
	}
}

// TestNearestFitAllocatesNothing sweeps targets over the die at ECO's
// radius 120 and at Refine's unbounded radius 0.
func TestNearestFitAllocatesNothing(t *testing.T) {
	l, in := capTiledLayout(t)
	d := newDensityTracker(l)
	for _, radius := range []int{120, 0} {
		sweep := func() (found int) {
			for tr := 0; tr < l.NumRows; tr += 3 {
				for ts := 0; ts < l.SitesPerRow; ts += 5 {
					if _, _, ok := nearestFit(l, d, in, tr, ts, radius); ok {
						found++
					}
				}
			}
			return found
		}
		if sweep() == 0 {
			t.Fatalf("radius %d: fixture must find positions", radius)
		}
		if allocs := testing.AllocsPerRun(20, func() { sweep() }); allocs != 0 {
			t.Errorf("radius %d: nearestFit allocates %v times per sweep, want 0", radius, allocs)
		}
	}
}

// TestTryImproveCellAllocatesNothing: a refinement try reads its cell's
// terminal positions into the search's buffers, so once they have grown,
// a sweep of tries over every movable cell, moves included, allocates
// nothing.
func TestTryImproveCellAllocatesNothing(t *testing.T) {
	l, _ := capTiledLayout(t)
	d := newDensityTracker(l)
	cells := movableCells(l)
	sweep := func() (moved int) {
		for _, in := range cells {
			if tryImproveCell(l, d, in) {
				moved++
			}
		}
		return moved
	}
	sweep()
	if allocs := testing.AllocsPerRun(5, func() { sweep() }); allocs != 0 {
		t.Errorf("a sweep of tryImproveCell allocates %v times, want 0", allocs)
	}
}
