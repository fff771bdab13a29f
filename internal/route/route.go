// Package route is the global router: it decomposes every signal net into
// two-pin connections, pattern-routes them over a GCell grid with per-layer
// track capacities, and accounts track usage under the active non-default
// rule (wire width scaling consumes proportionally more track resource —
// the mechanism behind the Routing Width Scaling operator).
//
// The result exposes per-net routed length by layer (consumed by the timing
// engine), per-GCell congestion (consumed by the DRC engine), and free-track
// queries over arbitrary regions (consumed by the security metric).
package route

import (
	"fmt"
	"math"
	"sort"

	"gdsiiguard/internal/fault"
	"gdsiiguard/internal/geom"
	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/tech"
)

// Options configures the router.
type Options struct {
	// GCellSites and GCellRows set the GCell size (default 10 sites × 2
	// rows).
	GCellSites, GCellRows int
	// RipupPasses is the number of rip-up-and-reroute passes over
	// congested nets. Zero means "unset" and defaults to 1. To route with
	// no rip-up passes at all, set DisableRipup; negative values are
	// accepted as a disable too, for callers that already relied on that.
	RipupPasses int
	// DisableRipup turns rip-up-and-reroute off explicitly, distinguishing
	// "zero passes" from an unset (zero) RipupPasses.
	DisableRipup bool
	// Seed drives tie-breaking.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.GCellSites <= 0 {
		o.GCellSites = 10
	}
	if o.GCellRows <= 0 {
		o.GCellRows = 2
	}
	switch {
	case o.DisableRipup || o.RipupPasses < 0:
		o.RipupPasses = 0
	case o.RipupPasses == 0:
		o.RipupPasses = 1
	}
	return o
}

// Grid describes the GCell tessellation of the core.
type Grid struct {
	Cols, Rows            int
	GCellSites, GCellRows int
	// CellW, CellH are the GCell dimensions in DBU.
	CellW, CellH int64
	Origin       geom.Point
}

// Index returns the linear index of GCell (c, r).
func (g Grid) Index(c, r int) int { return r*g.Cols + c }

// Clamp constrains (c, r) into the grid.
func (g Grid) Clamp(c, r int) (int, int) {
	if c < 0 {
		c = 0
	}
	if c >= g.Cols {
		c = g.Cols - 1
	}
	if r < 0 {
		r = 0
	}
	if r >= g.Rows {
		r = g.Rows - 1
	}
	return c, r
}

// AtDBU returns the GCell containing the DBU point (clamped to the grid).
func (g Grid) AtDBU(p geom.Point) (int, int) {
	return g.col(p.X), g.row(p.Y)
}

// col is the GCell column containing DBU abscissa x, clamped to the grid;
// AtDBU is separable, so a point's column depends on its X alone.
func (g Grid) col(x int64) int {
	c := int((x - g.Origin.X) / g.CellW)
	if c < 0 {
		c = 0
	}
	if c >= g.Cols {
		c = g.Cols - 1
	}
	return c
}

// row is the GCell row containing DBU ordinate y, clamped to the grid.
func (g Grid) row(y int64) int {
	r := int((y - g.Origin.Y) / g.CellH)
	if r < 0 {
		r = 0
	}
	if r >= g.Rows {
		r = g.Rows - 1
	}
	return r
}

// Center returns the DBU center of GCell (c, r).
func (g Grid) Center(c, r int) geom.Point {
	return geom.Pt(
		g.Origin.X+int64(c)*g.CellW+g.CellW/2,
		g.Origin.Y+int64(r)*g.CellH+g.CellH/2,
	)
}

// Rect returns the DBU rectangle of GCell (c, r).
func (g Grid) Rect(c, r int) geom.Rect {
	lo := geom.Pt(g.Origin.X+int64(c)*g.CellW, g.Origin.Y+int64(r)*g.CellH)
	return geom.Rect{Lo: lo, Hi: lo.Add(geom.Pt(g.CellW, g.CellH))}
}

// Segment is one axis-aligned routed segment on a metal layer.
type Segment struct {
	Metal int // 1-based metal index
	A, B  geom.Point
}

// Len returns the segment length in DBU.
func (s Segment) Len() int64 { return s.A.ManhattanDist(s.B) }

// NetRoute is the routing of one net.
type NetRoute struct {
	Net      *netlist.Net
	Segments []Segment
	// LenByMetal is routed length in DBU per 1-based metal index
	// (index 0 unused).
	LenByMetal []int64
}

// TotalLen returns the net's total routed length in DBU.
func (nr *NetRoute) TotalLen() int64 {
	var t int64
	for _, v := range nr.LenByMetal {
		t += v
	}
	return t
}

// Result is the outcome of global routing.
type Result struct {
	Grid Grid
	// Usage and Cap are track usage/capacity per layer (0-based metal-1)
	// per GCell.
	Usage [][]float64
	Cap   [][]float64
	// NetRoutes is indexed by net ID.
	NetRoutes []*NetRoute
	// Overflow is the total track over-subscription across all GCells.
	Overflow float64
	// OverflowGCells is the number of (layer, gcell) pairs over capacity.
	OverflowGCells int
	// TotalWL is the total routed wirelength in DBU.
	TotalWL int64
	// Core is the core rectangle capacities were clipped to.
	Core geom.Rect
	// NDRScale is the per-layer NDR width scale the routing was committed
	// under (a snapshot of the layout's NDR at route time). Warm-starting
	// from this result requires an exactly equal NDR, since the scale
	// multiplies every track-usage commit.
	NDRScale []float64
	// Victims counts nets ripped up across all rip-up-and-reroute passes.
	// Only a result with zero victims can donate routes to a warm start:
	// with victims, the final per-net routes no longer reflect the usage
	// state each net saw at its main-loop turn, so replay equivalence
	// cannot be argued net by net.
	Victims int
}

// Route globally routes every net of the layout under its current NDR.
func Route(l *layout.Layout, opt Options) (*Result, error) {
	if err := fault.Hit(fault.Route); err != nil {
		return nil, err
	}
	return routeWithGeometry(l, opt, BuildGeometry(l))
}

// RouteWithGeometry is Route with a precomputed placement geometry (which
// must describe l's current placement). It produces bit-identical results
// to Route; callers that evaluate many NDR variants of one placement build
// the geometry once.
func RouteWithGeometry(l *layout.Layout, opt Options, geo *Geometry) (*Result, error) {
	if err := fault.Hit(fault.Route); err != nil {
		return nil, err
	}
	return routeWithGeometry(l, opt, geo)
}

func routeWithGeometry(l *layout.Layout, opt Options, geo *Geometry) (*Result, error) {
	defer routeSeconds.Start().Stop()
	opt = opt.withDefaults()
	lib := l.Lib()
	if lib.NumLayers() < 2 {
		return nil, fmt.Errorf("route: need at least 2 routing layers, have %d", lib.NumLayers())
	}
	grid := buildGrid(l, opt)
	res := &Result{
		Grid:      grid,
		NetRoutes: make([]*NetRoute, len(l.Netlist.Nets)),
		Core:      l.CoreRect(),
		NDRScale:  append([]float64(nil), l.NDR.Scale...),
	}
	n := grid.Cols * grid.Rows
	for li := 0; li < lib.NumLayers(); li++ {
		res.Usage = append(res.Usage, make([]float64, n))
		res.Cap = append(res.Cap, make([]float64, n))
	}
	fillCapacity(l, res)

	r := newRouter(l, res, geo, opt.Seed)
	r.routeAll(geo.Order)
	for p := 0; p < opt.RipupPasses; p++ {
		r.ripupAndReroute()
	}
	res.finalize()
	return res, nil
}

func buildGrid(l *layout.Layout, opt Options) Grid {
	site := l.Lib().Site
	g := Grid{
		GCellSites: opt.GCellSites,
		GCellRows:  opt.GCellRows,
		CellW:      int64(opt.GCellSites) * site.Width,
		CellH:      int64(opt.GCellRows) * site.Height,
		Origin:     l.Origin,
	}
	g.Cols = (l.SitesPerRow + opt.GCellSites - 1) / opt.GCellSites
	g.Rows = (l.NumRows + opt.GCellRows - 1) / opt.GCellRows
	if g.Cols < 1 {
		g.Cols = 1
	}
	if g.Rows < 1 {
		g.Rows = 1
	}
	return g
}

// fillCapacity computes per-layer per-GCell track capacity: the number of
// preferred-direction tracks crossing the GCell, scaled by the fraction of
// the GCell inside the core (boundary GCells overhang the core). Metal1
// capacity is halved: it is mostly consumed by intra-cell routing.
func fillCapacity(l *layout.Layout, res *Result) {
	lib := l.Lib()
	g := res.Grid
	core := l.CoreRect()
	for li := 0; li < lib.NumLayers(); li++ {
		layer := lib.Layer(li + 1)
		var tracks float64
		if layer.Dir == tech.Horizontal {
			tracks = float64(g.CellH) / float64(layer.Pitch)
		} else {
			tracks = float64(g.CellW) / float64(layer.Pitch)
		}
		if li == 0 {
			tracks /= 2
		}
		for r := 0; r < g.Rows; r++ {
			for c := 0; c < g.Cols; c++ {
				cell := g.Rect(c, r)
				frac := float64(cell.Intersect(core).Area()) / float64(cell.Area())
				res.Cap[li][g.Index(c, r)] = tracks * frac
			}
		}
	}
}

type router struct {
	l   *layout.Layout
	res *Result
	geo *Geometry
	// seed drives per-net tie-breaking. The rip-up victim order is a hash
	// of (seed, net ID) per net, so it is self-contained: it does not
	// depend on how many nets any other router instance processed before,
	// or on batch order.
	seed int64
	// track, when non-nil, accumulates the GCells whose usage rip-up
	// changes — route.Warm's Δ mask, extended through the rip-up passes so
	// the caller can tell which nets' surroundings moved.
	track *deltaMask
	// ladders[s] is the layer-pair ladder rotated to start at pair s (see
	// buildLadders); it depends only on the library.
	ladders [][][2]int
}

func newRouter(l *layout.Layout, res *Result, geo *Geometry, seed int64) *router {
	return &router{l: l, res: res, geo: geo, seed: seed, ladders: buildLadders(l.Lib())}
}

// routeAll routes the given geometry nets in order: geo.Order (canonical,
// descending HPWL) for the first pass, the hashed victim order for rip-up.
func (r *router) routeAll(order []int32) {
	for _, oi := range order {
		r.routeGeoNet(int(oi))
	}
}

// routeGeoNet pattern-routes the oi-th geometry net's precomputed two-pin
// connections and records the route. Nets whose geometry has no
// connections (fewer than two located terminals) stay unrouted.
func (r *router) routeGeoNet(oi int) {
	conns := r.geo.Conns[oi]
	if len(conns) == 0 {
		return
	}
	net := r.l.Netlist.Nets[r.geo.NetIDs[oi]]
	nr := &NetRoute{Net: net, LenByMetal: make([]int64, r.l.Lib().NumLayers()+1)}
	for _, c := range conns {
		r.routeTwoPin(nr, c.A, c.B, net.IsClock)
	}
	r.res.NetRoutes[net.ID] = nr
}

// buildLadders returns the candidate (hLayer, vLayer) metal pairs of the
// library, once per preferred pair: ladders[s] is the full ladder rotated
// so pair s comes first, followed by the pairs alternately above and below
// it. The router taxes candidates by their distance from the preferred
// pair, so congested preferred layers spill in both directions.
func buildLadders(lib *tech.Library) [][][2]int {
	k := lib.NumLayers()
	ladder := make([][2]int, 0, k/2)
	for h := 1; h+1 <= k; h += 2 {
		hh, vv := h, h+1
		if lib.Layer(hh).Dir != tech.Horizontal {
			hh, vv = vv, hh
		}
		ladder = append(ladder, [2]int{hh, vv})
	}
	ladders := make([][][2]int, len(ladder))
	for start := range ladder {
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
		ladders[start] = out
	}
	return ladders
}

// layerPairs returns the candidate (hLayer, vLayer) metal pairs for a
// connection of the given DBU length: the pair preferred by length class
// first, then the rest of the ladder, so congested low metal spills
// upward. Clock nets start on the mid stack.
func (r *router) layerPairs(lenDBU int64, clock bool) [][2]int {
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
	if start >= len(r.ladders) {
		start = len(r.ladders) - 1
	}
	return r.ladders[start]
}

// maxCands bounds the candidate patterns of one connection: two Ls, two
// Zs and, for degenerate connections, two U-detours.
const maxCands = 6

// candLen is the number of waypoints of candidate ci: 3 for the Ls, 4 for
// the Zs and U-detours.
func candLen(ci int) int {
	if ci < 2 {
		return 3
	}
	return 4
}

// choice is the pattern routeTwoPin commits: the waypoints path[:n] on the
// layer pair.
type choice struct {
	path [4]geom.Point
	n    int
	pair [2]int
}

// routeTwoPin routes an L- or Z-shaped connection between two DBU points,
// choosing the pattern and layer pair with the lowest congestion cost.
// Degenerate connections (terminals sharing an exact row or column — the
// common case between replicated tile stamps) additionally consider
// one-GCell U-detours to either side: their L and Z candidates all collapse
// onto the same straight line, so without a detour every such connection
// between the same track pair piles onto one GCell column no matter how
// congested it gets.
func (r *router) routeTwoPin(nr *NetRoute, a, b geom.Point, clock bool) {
	c := r.choose(a, b, clock)
	for j := 1; j < c.n; j++ {
		r.commit(nr, c.path[j-1], c.path[j], c.pair[runSide(c.path[j-1], c.path[j])])
	}
}

// choose prices every candidate pattern on every layer pair and returns
// the cheapest, first-best on ties; it allocates nothing.
//
// A candidate's cost is its pair's tax, plus 1 for a Z shape, plus the
// cost of each of its runs (spanCost) summed from zero and then added in
// run order. The search is an exact branch-and-bound over that sum. Every
// term a run adds is non-negative and at least 1 per GCell, and
// floating-point addition is monotone, so a candidate's cost can never
// fall below its floor — the tax, the Z via and its GCell count, all small
// integers and so exact — nor below any running partial sum. A candidate
// whose floor, or whose running cost while it is priced, reaches the best
// cost so far could only end at or above the best, and the strict < would
// never select it: it is skipped, and so is a pair whose tax alone reaches
// the best. The candidates that do complete are summed in exactly the same
// order as under full pricing, so the choice is bit-identical to pricing
// every candidate in full.
func (r *router) choose(a, b geom.Point, clock bool) choice {
	pairs := r.layerPairs(a.ManhattanDist(b), clock)
	mid := geom.Pt((a.X+b.X)/2, (a.Y+b.Y)/2)
	g := r.res.Grid
	// Candidate patterns as waypoint sequences: two Ls and two Zs.
	cands := [maxCands][4]geom.Point{
		{a, geom.Pt(b.X, a.Y), b},                        // L via (bx, ay)
		{a, geom.Pt(a.X, b.Y), b},                        // L via (ax, by)
		{a, geom.Pt(mid.X, a.Y), geom.Pt(mid.X, b.Y), b}, // HVH Z
		{a, geom.Pt(a.X, mid.Y), geom.Pt(b.X, mid.Y), b}, // VHV Z
	}
	// The same waypoints as GCells. Every waypoint coordinate is one of a
	// few abscissae and ordinates, each mapped to its column or row once.
	ca, cb, cm := g.col(a.X), g.col(b.X), g.col(mid.X)
	ra, rb, rm := g.row(a.Y), g.row(b.Y), g.row(mid.Y)
	cells := [maxCands][4]gcell{
		{{ca, ra}, {cb, ra}, {cb, rb}},
		{{ca, ra}, {ca, rb}, {cb, rb}},
		{{ca, ra}, {cm, ra}, {cm, rb}, {cb, rb}},
		{{ca, ra}, {ca, rm}, {cb, rm}, {cb, rb}},
	}
	nc := 4
	if a.X == b.X && absInt64(a.Y-b.Y) > g.CellH {
		for _, x := range [2]int64{a.X - g.CellW, a.X + g.CellW} {
			cx := g.col(x)
			cands[nc] = [4]geom.Point{a, geom.Pt(x, a.Y), geom.Pt(x, b.Y), b}
			cells[nc] = [4]gcell{{ca, ra}, {cx, ra}, {cx, rb}, {cb, rb}}
			nc++
		}
	} else if a.Y == b.Y && absInt64(a.X-b.X) > g.CellW {
		for _, y := range [2]int64{a.Y - g.CellH, a.Y + g.CellH} {
			ry := g.row(y)
			cands[nc] = [4]geom.Point{a, geom.Pt(a.X, y), geom.Pt(b.X, y), b}
			cells[nc] = [4]gcell{{ca, ra}, {ca, ry}, {cb, ry}, {cb, rb}}
			nc++
		}
	}
	// A run's GCells depend on its waypoints only; the pair picks its layer.
	var spans [maxCands][3]span
	var sides [maxCands][3]int
	var floor [maxCands]float64 // cost floor: 1 per GCell, plus 1 for a Z
	for ci := 0; ci < nc; ci++ {
		p, q := &cands[ci], &cells[ci]
		if ci >= 2 {
			floor[ci] = 1
		}
		for j := 1; j < candLen(ci); j++ {
			spans[ci][j-1] = g.cellSpan(q[j-1], q[j])
			sides[ci][j-1] = runSide(p[j-1], p[j])
			floor[ci] += float64(spans[ci][j-1].n)
		}
	}
	var best choice
	bestCost := math.Inf(1)
	for i, p := range pairs {
		// Non-preferred pairs pay a via/ascent tax so they are used only
		// under congestion; the sparse top pair (metal9/10, in real stacks
		// mostly power and clock) is strongly discouraged for signals.
		tax := float64(i) * 2
		if p[0] >= 9 || p[1] >= 9 {
			tax += 10
		}
		if tax >= bestCost {
			continue
		}
		for ci := 0; ci < nc; ci++ {
			if tax+floor[ci] >= bestCost {
				continue
			}
			cost := tax
			if ci >= 2 {
				cost += 1 // extra via pair for Z shapes
			}
			priced := true
			for j := 0; j < candLen(ci)-1; j++ {
				metal := p[sides[ci][j]]
				run, under := r.spanCost(spans[ci][j], metal-1, r.l.NDR.LayerScale(metal), cost, bestCost)
				if !under {
					priced = false
					break
				}
				cost += run
			}
			if priced && cost < bestCost {
				bestCost = cost
				best = choice{path: cands[ci], n: candLen(ci), pair: p}
			}
		}
	}
	return best
}

func absInt64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// runSide picks the layer of an axis-aligned run from a layer pair:
// vertical runs take the pair's vertical layer (side 1), everything else
// its horizontal one (side 0; zero-length runs default to horizontal).
func runSide(a, b geom.Point) int {
	if a.X == b.X && a.Y != b.Y {
		return 1
	}
	return 0
}

// span is the strided range of linear GCell indices an axis-aligned run
// crosses, in ascending order: start, start+stride, … below end — n cells.
type span struct {
	start, end, stride, n int
}

// gcell is a GCell's (column, row).
type gcell struct{ c, r int }

// span returns the GCells crossed by the axis-aligned run a→b.
func (g Grid) span(a, b geom.Point) span {
	return g.cellSpan(gcell{g.col(a.X), g.row(a.Y)}, gcell{g.col(b.X), g.row(b.Y)})
}

// cellSpan returns the GCells of the run between GCells p and q: a row run
// when both share a row, otherwise a column run in p's column.
func (g Grid) cellSpan(p, q gcell) span {
	if p.r == q.r {
		c0, c1 := p.c, q.c
		if c1 < c0 {
			c0, c1 = c1, c0
		}
		return span{start: g.Index(c0, p.r), end: g.Index(c1, p.r) + 1, stride: 1, n: c1 - c0 + 1}
	}
	r0, r1 := p.r, q.r
	if r1 < r0 {
		r0, r1 = r1, r0
	}
	return span{start: g.Index(p.c, r0), end: g.Index(p.c, r1) + g.Cols, stride: g.Cols, n: r1 - r0 + 1}
}

// spanCost prices a run over the span on 0-based layer li for a wire of
// the given track demand: 1 per GCell plus a quadratic penalty above 80%
// usage and a steep one on overflow. Congestion is priced at the usage the
// GCell would have AFTER this wire commits (current usage plus the wire's
// demand) — pricing the pre-existing usage instead lets the wire that
// pushes a GCell from just-under to just-over capacity through almost
// free, which is exactly the wire the penalty exists to deter.
//
// The run's cost is summed from zero in GCell order. Pricing stops, with
// under false, as soon as base plus the partial cost reaches limit; every
// term is non-negative, so the complete cost would reach it too.
func (r *router) spanCost(s span, li int, demand, base, limit float64) (cost float64, under bool) {
	usage, capa := r.res.Usage[li], r.res.Cap[li]
	for idx := s.start; idx < s.end; idx += s.stride {
		u := usage[idx] + demand
		c := capa[idx]
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
		if base+cost >= limit {
			return cost, false
		}
	}
	return cost, true
}

// commit books track usage for the run and records the segment. Usage per
// crossed GCell equals the NDR width scale of the layer: a 1.5× wide wire
// consumes 1.5 tracks.
func (r *router) commit(nr *NetRoute, a, b geom.Point, metal int) {
	if a == b {
		return
	}
	seg := Segment{Metal: metal, A: a, B: b}
	r.addUsage(seg, r.l.NDR.LayerScale(metal))
	nr.Segments = append(nr.Segments, seg)
	nr.LenByMetal[metal] += a.ManhattanDist(b)
}

// addUsage adds delta to the committed usage of every GCell the segment
// crosses, in span order.
func (r *router) addUsage(s Segment, delta float64) {
	usage := r.res.Usage[s.Metal-1]
	sp := r.res.Grid.span(s.A, s.B)
	for idx := sp.start; idx < sp.end; idx += sp.stride {
		usage[idx] += delta
	}
}

// book commits the usage of already-decided segments exactly as commit
// would: the same per-cell additions, in the same order.
func (r *router) book(segs []Segment) {
	for _, s := range segs {
		r.addUsage(s, r.l.NDR.LayerScale(s.Metal))
	}
}

// uncommit releases the usage of a routed net (for rip-up). Adding the
// negated scale is exactly IEEE subtraction of the scale.
func (r *router) uncommit(nr *NetRoute) {
	for _, s := range nr.Segments {
		r.addUsage(s, -r.l.NDR.LayerScale(s.Metal))
	}
	nr.Segments = nil
	for i := range nr.LenByMetal {
		nr.LenByMetal[i] = 0
	}
}

// ripupAndReroute rips up nets that cross overflowed GCells and re-routes
// them in a congestion-aware order.
func (r *router) ripupAndReroute() {
	over := make([]bool, r.res.Grid.Cols*r.res.Grid.Rows)
	any := false
	for li := range r.res.Usage {
		for i := range r.res.Usage[li] {
			if r.res.Usage[li][i] > r.res.Cap[li][i] {
				over[i] = true
				any = true
			}
		}
	}
	if !any {
		return
	}
	var victims []int32
	for _, oi := range r.geo.Order {
		nr := r.res.NetRoutes[r.geo.NetIDs[oi]]
		if nr == nil {
			continue
		}
		hit := false
		for _, s := range nr.Segments {
			sp := r.res.Grid.span(s.A, s.B)
			for idx := sp.start; idx < sp.end && !hit; idx += sp.stride {
				hit = over[idx]
			}
			if hit {
				break
			}
		}
		if hit {
			victims = append(victims, oi)
			if r.track != nil {
				r.track.addSegments(nr.Segments)
			}
			r.uncommit(nr)
		}
	}
	r.res.Victims += len(victims)
	// Victim order is a per-net hash of (seed, net ID): deterministic and
	// independent of how many nets this router has already processed,
	// unlike a shared math/rand shuffle.
	sort.Slice(victims, func(i, j int) bool {
		a, b := r.geo.NetIDs[victims[i]], r.geo.NetIDs[victims[j]]
		ha, hb := netOrderHash(r.seed, a), netOrderHash(r.seed, b)
		if ha != hb {
			return ha < hb
		}
		return a < b
	})
	r.routeAll(victims)
	if r.track != nil {
		for _, oi := range victims {
			if nr := r.res.NetRoutes[r.geo.NetIDs[oi]]; nr != nil {
				r.track.addSegments(nr.Segments)
			}
		}
	}
}

// netOrderHash is a splitmix64-style mix of (seed, net ID): the
// self-contained per-net tie-break key used to order rip-up victims.
func netOrderHash(seed int64, id int32) uint64 {
	x := uint64(seed) ^ (uint64(uint32(id))+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// finalize computes overflow and wirelength summaries.
func (res *Result) finalize() {
	res.Overflow, res.OverflowGCells, res.TotalWL = 0, 0, 0
	for li := range res.Usage {
		for i := range res.Usage[li] {
			if d := res.Usage[li][i] - res.Cap[li][i]; d > 1e-9 {
				res.Overflow += d
				res.OverflowGCells++
			}
		}
	}
	for _, nr := range res.NetRoutes {
		if nr != nil {
			res.TotalWL += nr.TotalLen()
		}
	}
}

// FreeTracksInRect sums the unused track capacity of every layer over the
// GCells intersecting the DBU rectangle, weighted by the overlapped area
// fraction of each GCell.
func (res *Result) FreeTracksInRect(rect geom.Rect) float64 {
	if rect.Empty() {
		return 0
	}
	g := res.Grid
	c0, r0 := g.AtDBU(rect.Lo)
	c1, r1 := g.AtDBU(geom.Pt(rect.Hi.X-1, rect.Hi.Y-1))
	total := 0.0
	for rr := r0; rr <= r1; rr++ {
		for c := c0; c <= c1; c++ {
			// Weight by the overlapped fraction of the GCell's *in-core*
			// area, since capacity was clipped to the core.
			cell := g.Rect(c, rr).Intersect(res.Core)
			ov := cell.Intersect(rect)
			if ov.Empty() || cell.Empty() {
				continue
			}
			frac := float64(ov.Area()) / float64(cell.Area())
			idx := g.Index(c, rr)
			for li := range res.Usage {
				free := res.Cap[li][idx] - res.Usage[li][idx]
				if free > 0 {
					total += free * frac
				}
			}
		}
	}
	return total
}

// TotalFreeTracks sums unused track capacity over the entire grid.
func (res *Result) TotalFreeTracks() float64 {
	total := 0.0
	for li := range res.Usage {
		for i := range res.Usage[li] {
			if free := res.Cap[li][i] - res.Usage[li][i]; free > 0 {
				total += free
			}
		}
	}
	return total
}

// NetCongestion returns the average track utilization (usage/capacity) of
// the GCells crossed by the net's route, or 0 for unrouted nets. The timing
// engine uses it to model detour and coupling delay in congested areas.
func (res *Result) NetCongestion(netID int) float64 {
	if netID < 0 || netID >= len(res.NetRoutes) || res.NetRoutes[netID] == nil {
		return 0
	}
	nr := res.NetRoutes[netID]
	total, n := 0.0, 0
	for _, s := range nr.Segments {
		g := res.Grid
		c0, r0 := g.AtDBU(s.A)
		c1, r1 := g.AtDBU(s.B)
		if r1 < r0 {
			r0, r1 = r1, r0
		}
		if c1 < c0 {
			c0, c1 = c1, c0
		}
		for rr := r0; rr <= r1; rr++ {
			for c := c0; c <= c1; c++ {
				idx := g.Index(c, rr)
				u, cp := res.Usage[s.Metal-1][idx], res.Cap[s.Metal-1][idx]
				if cp > 0 {
					total += u / cp
					n++
				}
			}
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}
