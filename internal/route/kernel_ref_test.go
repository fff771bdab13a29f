package route

import (
	"math"
	"math/rand"
	"testing"

	"gdsiiguard/internal/geom"
	"gdsiiguard/internal/tech"
)

// This file carries a verbatim copy of the closure-based pattern-route
// kernel — per-call layer ladders, slice-held candidates, and pathCost
// pricing every candidate in full through a per-GCell callback — as the
// golden reference. The equivalence test asserts that the pruned kernel
// chooses exactly the reference's segments.

func refLayerPairs(r *router, lenDBU int64, clock bool) [][2]int {
	k := r.l.Lib().NumLayers()
	ladder := make([][2]int, 0, k/2)
	for h := 1; h+1 <= k; h += 2 {
		hh, vv := h, h+1
		if r.l.Lib().Layer(hh).Dir != tech.Horizontal {
			hh, vv = vv, hh
		}
		ladder = append(ladder, [2]int{hh, vv})
	}
	start := 0
	switch {
	case clock:
		start = 2
	case lenDBU < 20_000: // < 20 µm
		start = 0
	case lenDBU < 60_000:
		start = 1
	case lenDBU < 150_000:
		start = 2
	default:
		start = 3
	}
	if start >= len(ladder) {
		start = len(ladder) - 1
	}
	// Return the full ladder rotated so the preferred pair is first; the
	// router taxes candidates by their distance from the preferred pair, so
	// congested preferred layers spill in both directions.
	out := make([][2]int, 0, len(ladder))
	out = append(out, ladder[start])
	for d := 1; d < len(ladder); d++ {
		if start+d < len(ladder) {
			out = append(out, ladder[start+d])
		}
		if start-d >= 0 {
			out = append(out, ladder[start-d])
		}
	}
	return out
}

func refRouteTwoPin(r *router, nr *NetRoute, a, b geom.Point, clock bool) {
	pairs := refLayerPairs(r, a.ManhattanDist(b), clock)
	mid := geom.Pt((a.X+b.X)/2, (a.Y+b.Y)/2)
	// Candidate patterns as waypoint sequences: two Ls and two Zs.
	candidates := [][]geom.Point{
		{a, geom.Pt(b.X, a.Y), b},                        // L via (bx, ay)
		{a, geom.Pt(a.X, b.Y), b},                        // L via (ax, by)
		{a, geom.Pt(mid.X, a.Y), geom.Pt(mid.X, b.Y), b}, // HVH Z
		{a, geom.Pt(a.X, mid.Y), geom.Pt(b.X, mid.Y), b}, // VHV Z
	}
	g := r.res.Grid
	if a.X == b.X && absInt64(a.Y-b.Y) > g.CellH {
		for _, x := range [2]int64{a.X - g.CellW, a.X + g.CellW} {
			candidates = append(candidates, []geom.Point{a, geom.Pt(x, a.Y), geom.Pt(x, b.Y), b})
		}
	} else if a.Y == b.Y && absInt64(a.X-b.X) > g.CellW {
		for _, y := range [2]int64{a.Y - g.CellH, a.Y + g.CellH} {
			candidates = append(candidates, []geom.Point{a, geom.Pt(a.X, y), geom.Pt(b.X, y), b})
		}
	}
	bestCost := math.Inf(1)
	var bestPath []geom.Point
	var bestPair [2]int
	for i, p := range pairs {
		// Non-preferred pairs pay a via/ascent tax so they are used only
		// under congestion; the sparse top pair (metal9/10, in real stacks
		// mostly power and clock) is strongly discouraged for signals.
		tax := float64(i) * 2
		if p[0] >= 9 || p[1] >= 9 {
			tax += 10
		}
		for ci, path := range candidates {
			cost := tax
			if ci >= 2 {
				cost += 1 // extra via pair for Z shapes
			}
			for j := 1; j < len(path); j++ {
				cost += refPathCost(r, path[j-1], path[j], refSegLayer(path[j-1], path[j], p))
			}
			if cost < bestCost {
				bestCost = cost
				bestPath = path
				bestPair = p
			}
		}
	}
	for j := 1; j < len(bestPath); j++ {
		r.commit(nr, bestPath[j-1], bestPath[j], refSegLayer(bestPath[j-1], bestPath[j], bestPair), r.res.Grid.span(bestPath[j-1], bestPath[j]))
	}
}

func refSegLayer(a, b geom.Point, pair [2]int) int {
	if a.X == b.X && a.Y != b.Y {
		return pair[1]
	}
	return pair[0]
}

func refPathCost(r *router, a, b geom.Point, metal int) float64 {
	cost := 0.0
	demand := r.l.NDR.LayerScale(metal)
	refWalk(r, a, b, func(idx int) {
		u, c := r.res.Usage[metal-1][idx]+demand, r.res.Cap[metal-1][idx]
		cost++
		if c > 0 {
			util := u / c
			if util > 0.8 {
				d := util - 0.8
				cost += 25 * d * d * c
			}
			if u > c {
				// outright overflow: strongly repel additional wires
				cost += 50 * (u - c + 1)
			}
		}
	})
	return cost
}

func refWalk(r *router, a, b geom.Point, f func(idx int)) {
	g := r.res.Grid
	c0, r0 := g.AtDBU(a)
	c1, r1 := g.AtDBU(b)
	if r0 == r1 {
		if c1 < c0 {
			c0, c1 = c1, c0
		}
		for c := c0; c <= c1; c++ {
			f(g.Index(c, r0))
		}
		return
	}
	if r1 < r0 {
		r0, r1 = r1, r0
	}
	for rr := r0; rr <= r1; rr++ {
		f(g.Index(c0, rr))
	}
}

// randomCongestion fills a fresh result with per-layer capacities and
// usages clustered on the cost function's breakpoints: usage plus the
// layer's NDR demand just under, at and just over 80 % and 100 % of
// capacity, plus zero-capacity cells and uniform noise. mode 0 leaves the
// grid empty, so equal-cost candidates tie and first-best decides; mode 1
// congests one GCell in six, so candidates differ by small penalties and
// land close to one another's cost floors.
func randomCongestion(rng *rand.Rand, g Grid, ndr []float64, mode int) *Result {
	n := g.Cols * g.Rows
	res := &Result{Grid: g}
	fracs := []float64{0.8 - 1e-9, 0.8, 0.8 + 1e-9, 1 - 1e-9, 1, 1 + 1e-9, 1.3}
	for li := range ndr {
		usage, capa := make([]float64, n), make([]float64, n)
		for i := range capa {
			capa[i] = 10
			if mode == 0 || (mode == 1 && rng.Intn(6) != 0) {
				continue
			}
			capa[i] = 0.5 + 11.5*rng.Float64()
			if rng.Intn(20) == 0 {
				capa[i] = 0
			}
			f := 1.5 * rng.Float64()
			if rng.Intn(2) == 0 {
				f = fracs[rng.Intn(len(fracs))]
			}
			usage[i] = math.Max(0, capa[i]*f-ndr[li])
		}
		res.Usage = append(res.Usage, usage)
		res.Cap = append(res.Cap, capa)
	}
	return res
}

// cloneUsage copies the usage grid; capacities are read-only and shared.
func cloneUsage(res *Result) *Result {
	out := *res
	out.Usage = make([][]float64, len(res.Usage))
	for li, u := range res.Usage {
		out.Usage[li] = append([]float64(nil), u...)
	}
	return &out
}

// randomConn draws a two-pin connection inside the grid: a third share
// each of degenerate vertical, degenerate horizontal and general ones,
// short enough sometimes to stay within one GCell.
func randomConn(rng *rand.Rand, g Grid) (geom.Point, geom.Point) {
	pt := func() geom.Point {
		return geom.Pt(g.Origin.X+rng.Int63n(int64(g.Cols)*g.CellW), g.Origin.Y+rng.Int63n(int64(g.Rows)*g.CellH))
	}
	a, b := pt(), pt()
	if rng.Intn(4) == 0 {
		b = geom.Pt(a.X+rng.Int63n(g.CellW), a.Y+rng.Int63n(g.CellH))
	}
	switch rng.Intn(3) {
	case 0:
		b.X = a.X
	case 1:
		b.Y = a.Y
	}
	return a, b
}

// withPenalties gives the router the penalty table a cold route keeps,
// filled for its current usage.
func withPenalties(r *router) *router {
	r.pen = layerGrids[penalty](len(r.res.Usage), len(r.res.Usage[0]))
	for li, pen := range r.pen {
		for idx := range pen {
			pen[idx] = penaltyOf(r.res.Usage[li][idx]+r.demand[li], r.res.Cap[li][idx])
		}
	}
	return r
}

// TestKernelMatchesReference routes random connections with the pruned
// kernel and the reference kernel from identical states and requires the
// same segments and the same usage after every net, under NDR scales
// {1, 1.2, 1.5}, for clock and signal nets. Every few nets both routers
// rip up the same earlier net, so usage falls as well as rises. The
// kernel runs once pricing from the penalty table, whose every entry must
// then stay current, and once pricing per GCell as route.Warm does; in
// both, run costs must equal the reference's bit for bit.
func TestKernelMatchesReference(t *testing.T) {
	l := placedLocalMesh(t, 8, 60, 40, 160)
	g := buildGrid(l)
	layers := l.Lib().NumLayers()
	rng := rand.New(rand.NewSource(7))
	scales := []float64{1, 1.2, 1.5}
	for trial := 0; trial < 96; trial++ {
		ndr := make([]float64, layers)
		for i := range ndr {
			ndr[i] = scales[rng.Intn(len(scales))]
		}
		l.NDR = tech.NDR{Scale: ndr}
		base := randomCongestion(rng, g, ndr, trial%4)
		seed := rng.Int63()
		for _, table := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			ref, got := newRouter(l, cloneUsage(base), nil, 0), newRouter(l, cloneUsage(base), nil, 0)
			if table {
				withPenalties(got)
			}
			var wants, haves []*NetRoute
			for net := 0; net < 40; net++ {
				if len(wants) > 0 && rng.Intn(4) == 0 {
					k := rng.Intn(len(wants))
					ref.uncommit(wants[k])
					got.uncommit(haves[k])
					wants = append(wants[:k], wants[k+1:]...)
					haves = append(haves[:k], haves[k+1:]...)
				}
				clock := rng.Intn(6) == 0
				want := &NetRoute{LenByMetal: make([]int64, layers+1)}
				have := &NetRoute{LenByMetal: make([]int64, layers+1)}
				for k := 0; k < 4; k++ {
					a, b := randomConn(rng, g)
					// The run costs must match bit for bit, not only the
					// choices they lead to.
					for _, run := range [2][2]geom.Point{{a, geom.Pt(b.X, a.Y)}, {geom.Pt(b.X, a.Y), b}} {
						m := 1 + rng.Intn(layers)
						w := refPathCost(ref, run[0], run[1], m)
						h, _ := got.spanCost(g.span(run[0], run[1]), m-1, 0, math.Inf(1))
						if math.Float64bits(h) != math.Float64bits(w) {
							t.Fatalf("trial %d table %v net %d: run %v on metal %d costs %v, reference %v", trial, table, net, run, m, h, w)
						}
					}
					refRouteTwoPin(ref, want, a, b, clock)
					got.routeTwoPin(have, a, b, clock)
				}
				if !sameSegments(have.Segments, want.Segments) {
					t.Fatalf("trial %d table %v net %d (clock %v): segments\n%v\nwant\n%v",
						trial, table, net, clock, have.Segments, want.Segments)
				}
				wants, haves = append(wants, want), append(haves, have)
				for li := 0; li < layers; li++ {
					for idx := 0; idx < g.Cols*g.Rows; idx++ {
						u, c := got.res.Usage[li][idx], got.res.Cap[li][idx]
						if w := ref.res.Usage[li][idx]; u != w {
							t.Fatalf("trial %d table %v net %d: usage[%d][%d] %g != %g", trial, table, net, li, idx, u, w)
						}
						if table && got.pen[li][idx] != penaltyOf(u+got.demand[li], c) {
							t.Fatalf("trial %d net %d: stale penalty[%d][%d] %+v, usage %g cap %g",
								trial, net, li, idx, got.pen[li][idx], u, c)
						}
					}
				}
			}
		}
	}
}

// TestChooseAllocatesNothing pins the pricing loop's allocation-free
// property for ordinary, degenerate and clock connections.
func TestChooseAllocatesNothing(t *testing.T) {
	l := placedLocalMesh(t, 8, 60, 40, 160)
	g := buildGrid(l)
	rng := rand.New(rand.NewSource(3))
	res := randomCongestion(rng, g, l.NDR.Scale, 1)
	conns := [][2]geom.Point{
		{g.Center(1, 1), g.Center(12, 17)},
		{g.Center(3, 2), g.Center(3, 15)},
		{g.Center(2, 9), g.Center(14, 9)},
	}
	for _, r := range []*router{newRouter(l, res, nil, 0), withPenalties(newRouter(l, res, nil, 0))} {
		for _, c := range conns {
			for _, clock := range []bool{false, true} {
				if n := testing.AllocsPerRun(50, func() { r.choose(c[0], c[1], clock) }); n != 0 {
					t.Errorf("table %v clock %v %v→%v: %v allocs per choose", r.pen != nil, clock, c[0], c[1], n)
				}
			}
		}
	}
}
