package core

import (
	"math"
	"sort"

	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/place"
	"gdsiiguard/internal/sta"
)

// LDAResult reports one Dynamic Local Density Adjustment run.
type LDAResult struct {
	// Moved is the total number of cells relocated by ECO placement over
	// all iterations.
	Moved int
	// Iterations actually performed.
	Iterations int
	// Satisfied reports whether the final iteration met every blockage cap.
	Satisfied bool
}

// LocalDensityAdjust runs Algorithm 2: the core is divided into N×N grids;
// each iteration deletes the existing blockages, counts security-critical
// cells per grid, normalizes the counts, smooths them through a sigmoid into
// density upper bounds, installs one partial placement blockage per grid,
// and runs wirelength-driven ECO placement. Regions with few assets get low
// density caps, so free space is pushed away from the security-critical
// cells with minimal wirelength (timing) impact.
// timing, when non-nil, supplies per-instance slack so cells on critical
// paths are not relocated (the rearrangement is wire-length/timing driven).
func LocalDensityAdjust(l *layout.Layout, gridN, iters int, seed int64, timing *sta.Result) LDAResult {
	if gridN < 1 {
		gridN = 1
	}
	return ldaChain(l, gridN, 0, iters, seed, timing, LDAResult{}, nil)
}

// ldaChain runs iterations from..to-1 of an LDA chain on a layout that
// already holds the first from iterations (acc is their telemetry) and
// returns the chain's telemetry. step, when non-nil, is called after each
// iteration with the number of iterations now applied.
func ldaChain(l *layout.Layout, gridN, from, to int, seed int64, timing *sta.Result, acc LDAResult, step func(next int, lda LDAResult)) LDAResult {
	for it := from; it < to; it++ {
		moved, satisfied := ldaIteration(l, gridN, seed, it, timing)
		acc.Moved += moved
		acc.Satisfied = satisfied
		acc.Iterations++
		if step != nil {
			step(it+1, acc)
		}
	}
	// Blockages are transient scaffolding of the operator.
	l.ClearBlockages()
	return acc
}

// ldaIteration runs one iteration of Algorithm 2 with absolute iteration
// index it (the ECO placement seed is seed+it, so a chain resumed from a
// memoized prefix draws the same randomness as an uninterrupted run).
//
// Each iteration begins by deleting the previous iteration's blockages and
// ends with its own installed, so the only state an iteration hands to the
// next is the placement itself — which is what makes the LDA chain
// memoizable as placement diffs: LDA(N, k+1) ≡ LDA(N, k) + ldaIteration(k)
// regardless of whether the k-iteration state was computed or replayed.
func ldaIteration(l *layout.Layout, gridN int, seed int64, it int, timing *sta.Result) (moved int, satisfied bool) {
	l.ClearBlockages()
	counts := assetCounts(l, gridN)
	mean, std := meanStd(counts)

	rowsPer := (l.NumRows + gridN - 1) / gridN
	sitesPer := (l.SitesPerRow + gridN - 1) / gridN
	// Density caps must admit the design: floor at a fraction of the
	// current utilization so the aggregate remains feasible.
	util := l.Utilization()
	floor := util * 0.55
	for gi := 0; gi < gridN; gi++ {
		for gj := 0; gj < gridN; gj++ {
			z := 0.0
			if std > 0 {
				z = (counts[gi][gj] - mean) / std
			}
			dens := sigmoid(z)
			if dens < floor {
				dens = floor
			}
			l.AddBlockage(layout.Blockage{
				Row0: gi * rowsPer, Row1: (gi + 1) * rowsPer,
				Site0: gj * sitesPer, Site1: (gj + 1) * sitesPer,
				MaxDensity: dens,
			})
		}
	}
	eco := place.ECO(l, seed+int64(it))
	moved = eco.Moved
	satisfied = eco.Satisfied
	// Density elevation: pull nearby movable cells into asset tiles up
	// to their (higher) caps, eliminating free sites next to the
	// assets themselves.
	moved += attractIntoAssetTiles(l, gridN, counts, timing)
	return moved, satisfied
}

// attractIntoAssetTiles fills asset-holding tiles toward their density caps
// by moving in the nearest movable non-critical cells, choosing at each
// step the candidate whose relocation costs the least wirelength.
func attractIntoAssetTiles(l *layout.Layout, gridN int, counts [][]float64, timing *sta.Result) int {
	rowsPer := (l.NumRows + gridN - 1) / gridN
	sitesPer := (l.SitesPerRow + gridN - 1) / gridN
	moved := 0
	for gi := 0; gi < gridN; gi++ {
		for gj := 0; gj < gridN; gj++ {
			if counts[gi][gj] == 0 {
				continue
			}
			r0, r1 := gi*rowsPer, min((gi+1)*rowsPer, l.NumRows)
			s0, s1 := gj*sitesPer, min((gj+1)*sitesPer, l.SitesPerRow)
			capD := l.BlockageAt(r0, s0)
			moved += fillTile(l, r0, r1, s0, s1, capD, timing)
		}
	}
	return moved
}

// fillTile moves outside cells into the tile's free runs until density
// reaches cap or no candidate improves cheaply.
// slackMarginPS is the minimum timing slack a cell must have to be an LDA
// relocation donor: moving near-critical cells would wreck timing.
const slackMarginPS = 120

func fillTile(l *layout.Layout, r0, r1, s0, s1 int, capD float64, timing *sta.Result) int {
	tileSites := (r1 - r0) * (s1 - s0)
	if tileSites == 0 {
		return 0
	}
	budget := int(capD*float64(tileSites)) - int(l.RegionDensity(r0, r1, s0, s1)*float64(tileSites))
	if budget <= 0 {
		return 0
	}
	// Candidate donors: movable functional cells outside the tile, nearest
	// first (by row/site distance to the tile center).
	type cand struct {
		in   *netlist.Instance
		dist int
	}
	cr, cs := (r0+r1)/2, (s0+s1)/2
	var cands []cand
	for _, in := range l.Netlist.Insts {
		if in.Fixed || !in.Master.IsFunctional() {
			continue
		}
		if timing != nil {
			if sl := timing.InstSlack(in); !math.IsInf(sl, 1) && sl < slackMarginPS {
				continue // critical-path cell: do not disturb
			}
		}
		p := l.PlacementOf(in)
		if !p.Placed || (p.Row >= r0 && p.Row < r1 && p.Site >= s0 && p.Site < s1) {
			continue
		}
		d := abs(p.Row-cr)*8 + abs(p.Site-cs)
		cands = append(cands, cand{in, d})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].in.ID < cands[j].in.ID
	})
	moved := 0
	var runs []layout.SiteRun
	for _, c := range cands {
		if budget <= 0 {
			break
		}
		w := c.in.Master.WidthSites
		if w > budget {
			continue
		}
		// First free slot in the tile that fits.
		placedAt := -1
		var row int
		for r := r0; r < r1 && placedAt < 0; r++ {
			runs = l.AppendFreeRuns(r, runs[:0])
			for _, run := range runs {
				lo := max(run.Start, s0)
				hi := min(run.Start+run.Len, s1)
				if hi-lo >= w {
					placedAt, row = lo, r
					break
				}
			}
		}
		if placedAt < 0 {
			break // tile fragmented: no slot fits any further cell
		}
		if err := l.Place(c.in, row, placedAt); err != nil {
			continue
		}
		budget -= w
		moved++
	}
	return moved
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// assetCounts returns the number of security-critical cells per grid tile.
func assetCounts(l *layout.Layout, gridN int) [][]float64 {
	counts := make([][]float64, gridN)
	for i := range counts {
		counts[i] = make([]float64, gridN)
	}
	rowsPer := (l.NumRows + gridN - 1) / gridN
	sitesPer := (l.SitesPerRow + gridN - 1) / gridN
	for _, in := range l.Netlist.CriticalInsts() {
		p := l.PlacementOf(in)
		if !p.Placed {
			continue
		}
		gi := p.Row / rowsPer
		gj := p.Site / sitesPer
		if gi >= gridN {
			gi = gridN - 1
		}
		if gj >= gridN {
			gj = gridN - 1
		}
		counts[gi][gj]++
	}
	return counts
}

func meanStd(m [][]float64) (mean, std float64) {
	n := 0
	for _, row := range m {
		for _, v := range row {
			mean += v
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	mean /= float64(n)
	for _, row := range m {
		for _, v := range row {
			std += (v - mean) * (v - mean)
		}
	}
	std = math.Sqrt(std / float64(n))
	return mean, std
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }
