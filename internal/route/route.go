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
	"cmp"
	"fmt"
	"math"
	"slices"

	"gdsiiguard/internal/fault"
	"gdsiiguard/internal/geom"
	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/tech"
)

// Options configures the router.
type Options struct {
	// Seed drives tie-breaking.
	Seed int64
}

// The GCell is gcellSites sites wide and gcellRows rows tall.
const gcellSites, gcellRows = 10, 2

// Grid describes the GCell tessellation of the core.
type Grid struct {
	Cols, Rows int
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
	// per GCell. Cap is read-only once filled: a warm-started result
	// shares its donor's.
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
	// Victims counts nets ripped up by the rip-up-and-reroute pass.
	// Only a result with zero victims can donate routes to a warm start:
	// with victims, the final per-net routes no longer reflect the usage
	// state each net saw at its main-loop turn, so replay equivalence
	// cannot be argued net by net.
	Victims int

	// lib is the library whose layer stack Cap was computed for; a warm
	// start shares Cap only with a donor routed over the same one.
	lib *tech.Library
}

// Route globally routes every net of the layout under its current NDR.
func Route(l *layout.Layout, opt Options) (*Result, error) {
	if err := fault.Hit(fault.Route); err != nil {
		return nil, err
	}
	return routeWithGeometry(l, opt, BuildGeometry(l), nil)
}

// RouteWithGeometry is Route with a precomputed placement geometry (which
// must describe l's current placement). It produces bit-identical results
// to Route; callers that evaluate many NDR variants of one placement build
// the geometry once.
func RouteWithGeometry(l *layout.Layout, opt Options, geo *Geometry) (*Result, error) {
	if err := fault.Hit(fault.Route); err != nil {
		return nil, err
	}
	return routeWithGeometry(l, opt, geo, nil)
}

// Workspace is the memory of a cold route, recycled from one route to the
// next: the Result itself, its Usage/Cap grids and NetRoutes, the penalty
// table, each pass's record, LenByMetal and Segments slabs, and the rip-up
// mask and victim lists. Every route reinitializes everything it reads
// before it starts, so a route into a workspace is bit-identical to a
// fresh one whatever the workspace last held — another placement, NDR or
// design, or a route that panicked halfway.
//
// A Result routed into a workspace is valid only until the workspace's
// next route, which overwrites it in place. A Workspace is not safe for
// concurrent use.
type Workspace struct {
	res       *Result
	usage     [][]float64
	capa      [][]float64
	pen       [][]penalty
	netRoutes []*NetRoute
	ndr       []float64
	// passes holds the slabs of each routing pass: the main pass first,
	// then the rip-up pass when it found victims.
	passes  []passSlabs
	over    []bool
	victims []int32
	keys    []victimKey
}

// passSlabs is one routing pass's memory: its records, LenByMetal arrays
// and first segment slab, and the segment slab the rest of the pass takes
// when the first runs short (see routeAll).
type passSlabs struct {
	recs       []NetRoute
	lens       []int64
	segs, more []Segment
}

// Route is RouteWithGeometry into the workspace's memory, bit-identical to
// it. The result is valid until the workspace's next route.
func (ws *Workspace) Route(l *layout.Layout, opt Options, geo *Geometry) (*Result, error) {
	if err := fault.Hit(fault.Route); err != nil {
		return nil, err
	}
	return routeWithGeometry(l, opt, geo, ws)
}

// routeWithGeometry is the router. It routes into ws, or into a fresh
// workspace when ws is nil: that route's Result holds exactly the memory
// it uses, and neither the penalty table nor any slab beyond its own.
func routeWithGeometry(l *layout.Layout, opt Options, geo *Geometry, ws *Workspace) (*Result, error) {
	defer routeSeconds.Start().Stop()
	lib := l.Lib()
	if lib.NumLayers() < 2 {
		return nil, fmt.Errorf("route: need at least 2 routing layers, have %d", lib.NumLayers())
	}
	if ws == nil {
		ws = new(Workspace)
	}
	if ws.res == nil {
		ws.res = new(Result)
	}
	grid := buildGrid(l)
	k, n := lib.NumLayers(), grid.Cols*grid.Rows
	var stale bool
	ws.usage, stale = reuseGrids(ws.usage, k, n)
	if stale {
		for _, u := range ws.usage {
			clear(u)
		}
	}
	ws.capa, _ = reuseGrids(ws.capa, k, n)
	ws.pen, _ = reuseGrids(ws.pen, k, n)
	netRoutes, stale := grow(&ws.netRoutes, len(l.Netlist.Nets))
	if stale {
		clear(netRoutes)
	}
	ws.ndr = append(ws.ndr[:0], l.NDR.Scale...)
	res := ws.res
	*res = Result{
		Grid:      grid,
		Usage:     ws.usage,
		Cap:       ws.capa,
		NetRoutes: netRoutes,
		Core:      l.CoreRect(),
		NDRScale:  ws.ndr,
		lib:       lib,
	}
	r := newRouter(l, res, geo, opt.Seed)
	r.ws = ws
	r.pen = ws.pen
	fillCapacity(l, res, r.pen, r.demand)

	r.routeAll(geo.Order)
	r.ripupAndReroute()
	res.finalize()
	return res, nil
}

func buildGrid(l *layout.Layout) Grid {
	site := l.Lib().Site
	g := Grid{
		CellW:  gcellSites * site.Width,
		CellH:  gcellRows * site.Height,
		Origin: l.Origin,
	}
	g.Cols = (l.SitesPerRow + gcellSites - 1) / gcellSites
	g.Rows = (l.NumRows + gcellRows - 1) / gcellRows
	if g.Cols < 1 {
		g.Cols = 1
	}
	if g.Rows < 1 {
		g.Rows = 1
	}
	return g
}

// layerGrids returns k zeroed per-layer grids of n GCells carved from one
// allocation, each a full slice expression (cap = n).
func layerGrids[T any](k, n int) [][]T {
	slab := make([]T, k*n)
	out := make([][]T, k)
	for li := range out {
		out[li] = slab[li*n : (li+1)*n : (li+1)*n]
	}
	return out
}

// reuseGrids returns rows when they are already k grids of n GCells —
// stale, holding whatever the last route left — and fresh zeroed grids
// otherwise.
func reuseGrids[T any](rows [][]T, k, n int) (grids [][]T, stale bool) {
	if len(rows) == k && k > 0 && len(rows[0]) == n {
		return rows, true
	}
	return layerGrids[T](k, n), false
}

// grow returns the first n elements of *buf, replacing *buf by a fresh
// zeroed slice of length n when its capacity is short. stale reports that
// the elements were reused and hold whatever they last held; the capacity
// beyond n stays reachable by reslicing.
func grow[T any](buf *[]T, n int) (s []T, stale bool) {
	if cap(*buf) < n {
		*buf = make([]T, n)
		return *buf, false
	}
	return (*buf)[:n], true
}

// fillCapacity computes per-layer per-GCell track capacity: the number of
// preferred-direction tracks crossing the GCell, scaled by the fraction of
// the GCell inside the core (boundary GCells overhang the core). Metal1
// capacity is halved: it is mostly consumed by intra-cell routing.
//
// A GCell's core fraction is the same on every layer, so it is computed
// once per GCell. The same pass fills the penalty table pen of the empty
// grid: usage 0 plus demand[li] is demand[li] exactly.
func fillCapacity(l *layout.Layout, res *Result, pen [][]penalty, demand []float64) {
	lib := l.Lib()
	g := res.Grid
	core := l.CoreRect()
	tracks := make([]float64, lib.NumLayers())
	for li := range tracks {
		layer := lib.Layer(li + 1)
		if layer.Dir == tech.Horizontal {
			tracks[li] = float64(g.CellH) / float64(layer.Pitch)
		} else {
			tracks[li] = float64(g.CellW) / float64(layer.Pitch)
		}
		if li == 0 {
			tracks[li] /= 2
		}
	}
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			cell := g.Rect(c, r)
			frac := float64(cell.Intersect(core).Area()) / float64(cell.Area())
			idx := g.Index(c, r)
			for li, t := range tracks {
				capa := t * frac
				res.Cap[li][idx] = capa
				pen[li][idx] = penaltyOf(demand[li], capa)
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
	// changes — route.Warm's Δ mask, extended through the rip-up pass so
	// the caller can tell which nets' surroundings moved.
	track *deltaMask
	// ladders[s] is the layer-pair ladder rotated to start at pair s (see
	// buildLadders); it depends only on the library.
	ladders [][][2]int
	// demand[li] is the track usage one wire adds to a GCell of 0-based
	// layer li: the layer's NDR width scale, fixed for the whole route.
	demand []float64
	// pen, when non-nil, is the penalty table: pen[li][idx] is always
	// penaltyOf(Usage[li][idx]+demand[li], Cap[li][idx]), kept current by
	// addUsage. A cold route builds it; route.Warm does not (see spanCost).
	pen [][]penalty
	// recs, lens and segs are the slabs routeGeoNet carves NetRoute
	// records, LenByMetal and Segments from (see reserve).
	recs []NetRoute
	lens []int64
	segs []Segment
	// ws holds the per-pass slabs and the rip-up buffers; pass counts the
	// passes routeAll has started.
	ws   *Workspace
	pass int
}

func newRouter(l *layout.Layout, res *Result, geo *Geometry, seed int64) *router {
	demand := make([]float64, l.Lib().NumLayers())
	for li := range demand {
		demand[li] = l.NDR.LayerScale(li + 1)
	}
	return &router{l: l, res: res, geo: geo, seed: seed, ladders: buildLadders(l.Lib()), demand: demand}
}

// routeAll routes the given geometry nets in order: geo.Order (canonical,
// descending HPWL) for the first pass, the hashed victim order for rip-up.
//
// The pass's slabs hold one record and one LenByMetal per routed net and,
// at first, the fewest segments its connections can commit. Routes are
// nearly all Ls and straight runs, so that bound is within a few percent
// of the truth. A net starts only where its upper bound fits; when the
// lower bound runs short, the rest of the pass gets one slab sized by its
// upper bound. In a fresh workspace a pass thus allocates at most four
// times, and wastes at most one net's bound at the first slab's tail; a
// recycled one reuses the slabs the same pass of its last route grew.
func (r *router) routeAll(order []int32) {
	nets, segs := 0, 0
	for _, oi := range order {
		if conns := r.geo.Conns[oi]; len(conns) > 0 {
			nets++
			for _, c := range conns {
				segs += minRuns(c)
			}
		}
	}
	if r.pass == len(r.ws.passes) {
		r.ws.passes = append(r.ws.passes, passSlabs{})
	}
	sl := &r.ws.passes[r.pass]
	r.pass++
	r.reserve(sl, nets, segs)
	for i, oi := range order {
		if cap(r.segs)-len(r.segs) < maxRunsPerConn*len(r.geo.Conns[oi]) {
			rest := 0
			for _, oj := range order[i:] {
				rest += len(r.geo.Conns[oj])
			}
			r.segs, _ = grow(&sl.more, maxRunsPerConn*rest)
			r.segs = r.segs[:0]
		}
		r.routeGeoNet(int(oi))
	}
}

// maxRunsPerConn bounds the segments one connection commits: a Z or a
// U-detour has three runs, an L two.
const maxRunsPerConn = 3

// minRuns is the fewest segments routing c can commit: none for
// coincident terminals, one for a straight connection, and two otherwise,
// since every candidate then needs a run along each axis.
func minRuns(c Conn) int {
	switch {
	case c.A == c.B:
		return 0
	case c.A.X == c.B.X || c.A.Y == c.B.Y:
		return 1
	}
	return 2
}

// reserve takes the pass's slabs for nets records and segs segments: one
// record and one LenByMetal per net. A slab too small for the pass is
// replaced by one allocation; a reused LenByMetal slab is cleared, and a
// reused segment slab keeps its whole capacity.
func (r *router) reserve(sl *passSlabs, nets, segs int) {
	var stale bool
	r.recs, _ = grow(&sl.recs, nets)
	if r.lens, stale = grow(&sl.lens, nets*(r.l.Lib().NumLayers()+1)); stale {
		clear(r.lens)
	}
	r.segs, _ = grow(&sl.segs, segs)
	r.segs = r.segs[:0]
}

// routeGeoNet pattern-routes the oi-th geometry net's precomputed two-pin
// connections and records the route. Nets whose geometry has no
// connections (fewer than two located terminals) stay unrouted.
//
// The record, its LenByMetal and its Segments come from the router's
// slabs; a net routeAll did not reserve for (route.Warm's main loop) gets
// slabs sized for itself alone, outside any workspace. Segments are
// appended in place at the slab's tail, within the net's upper bound, then
// cut to a full slice expression (cap = len), so no two nets share
// capacity and the slab tail moves on by the segments actually committed.
func (r *router) routeGeoNet(oi int) {
	conns := r.geo.Conns[oi]
	if len(conns) == 0 {
		return
	}
	k := r.l.Lib().NumLayers() + 1
	bound := maxRunsPerConn * len(conns)
	if len(r.recs) == 0 || cap(r.segs)-len(r.segs) < bound {
		r.recs, r.lens, r.segs = make([]NetRoute, 1), make([]int64, k), make([]Segment, 0, bound)
	}
	net := r.l.Netlist.Nets[r.geo.NetIDs[oi]]
	nr := &r.recs[0]
	r.recs = r.recs[1:]
	at := len(r.segs)
	*nr = NetRoute{Net: net, Segments: r.segs[at : at : at+bound], LenByMetal: r.lens[:k:k]}
	r.lens = r.lens[k:]
	for _, c := range conns {
		r.routeTwoPin(nr, c.A, c.B, net.IsClock)
	}
	n := len(nr.Segments)
	nr.Segments = nr.Segments[:n:n]
	r.segs = r.segs[:at+n]
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
// layer pair, run j on metal pair[sides[j]] over the GCells spans[j].
type choice struct {
	path  [4]geom.Point
	spans [3]span
	sides [3]int
	n     int
	pair  [2]int
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
		r.commit(nr, c.path[j-1], c.path[j], c.pair[c.sides[j-1]], c.spans[j-1])
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
	bestCI, bestPair := 0, [2]int{}
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
				run, under := r.spanCost(spans[ci][j], p[sides[ci][j]]-1, cost, bestCost)
				if !under {
					priced = false
					break
				}
				cost += run
			}
			if priced && cost < bestCost {
				bestCost, bestCI, bestPair = cost, ci, p
			}
		}
	}
	if math.IsInf(bestCost, 1) {
		return choice{} // every cost was NaN or infinite: commit nothing
	}
	return choice{path: cands[bestCI], spans: spans[bestCI], sides: sides[bestCI], n: candLen(bestCI), pair: bestPair}
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
// crosses, in ascending order: start, start+stride, … — n cells.
type span struct {
	start, stride, n int
}

// end is the index one stride past the span's last GCell.
func (s span) end() int { return s.start + s.n*s.stride }

// gcell is a GCell's (column, row).
type gcell struct{ c, r int }

// span returns the GCells crossed by the axis-aligned run a→b.
func (g Grid) span(a, b geom.Point) span {
	return g.cellSpan(gcell{g.col(a.X), g.row(a.Y)}, gcell{g.col(b.X), g.row(b.Y)})
}

// cellSpan returns the GCells of the run between GCells p and q: a row run
// when both share a row, otherwise a column run in p's column.
func (g *Grid) cellSpan(p, q gcell) span {
	if p.r == q.r {
		c0 := min(p.c, q.c)
		return span{start: p.r*g.Cols + c0, stride: 1, n: max(p.c, q.c) - c0 + 1}
	}
	r0 := min(p.r, q.r)
	return span{start: r0*g.Cols + p.c, stride: g.Cols, n: max(p.r, q.r) - r0 + 1}
}

// penalty is the congestion price of one GCell for the next wire on its
// layer: the two terms spanCost adds after the GCell's unit cost.
type penalty struct{ util, over float64 }

// penaltyOf prices a GCell at usage u — committed usage plus the wire's
// demand — and capacity c: 25·d²·c with d = u/c − 0.8 above 80 %
// utilization, and 50·(u−c+1) on overflow; both are zero where c ≤ 0.
// When u ≤ fl(0.75·c) the quotient rounds below 0.8 and u ≤ c, so both
// terms are zero and the division is skipped.
func penaltyOf(u, c float64) penalty {
	var p penalty
	if c > 0 && u > 0.75*c {
		if util := u / c; util > 0.8 {
			d := util - 0.8
			p.util = 25 * d * d * c
		}
		if u > c {
			// outright overflow: strongly repel additional wires
			p.over = 50 * (u - c + 1)
		}
	}
	return p
}

// spanCost prices a run over the span on 0-based layer li: per GCell, 1
// plus the GCell's penalty at the usage it would have AFTER this wire
// commits (usage plus the layer's demand). Pricing the pre-existing usage
// instead lets the wire that pushes a GCell from just-under to just-over
// capacity through almost free, which is exactly the wire the penalty
// exists to deter.
//
// Each GCell adds 1, then its util term, then its over term. A zero term
// leaves the sum unchanged (x + 0 == x, and the sum is at least 1), so
// this equals adding only the non-zero terms. A cold route reads the
// penalties from the table addUsage keeps current; route.Warm has no
// table and computes them per GCell through the same penaltyOf, because
// an O(grid) table per ECO would cost more than the few nets it reroutes.
//
// The run's cost is summed from zero in GCell order. Pricing stops, with
// under false, as soon as base plus the partial cost reaches limit; every
// term is non-negative, so the complete cost would reach it too.
func (r *router) spanCost(s span, li int, base, limit float64) (cost float64, under bool) {
	if r.pen == nil {
		usage, capa, demand := r.res.Usage[li], r.res.Cap[li], r.demand[li]
		for idx, end := s.start, s.end(); idx < end; idx += s.stride {
			p := penaltyOf(usage[idx]+demand, capa[idx])
			cost++
			cost += p.util
			cost += p.over
			if base+cost >= limit {
				return cost, false
			}
		}
		return cost, true
	}
	pen := r.pen[li]
	for idx, end := s.start, s.end(); idx < end; idx += s.stride {
		p := &pen[idx]
		cost++
		cost += p.util
		cost += p.over
		if base+cost >= limit {
			return cost, false
		}
	}
	return cost, true
}

// commit books track usage for the run over the span choose mapped and
// records the segment. Usage per crossed GCell equals the NDR width scale
// of the layer: a 1.5× wide wire consumes 1.5 tracks.
func (r *router) commit(nr *NetRoute, a, b geom.Point, metal int, sp span) {
	if a == b {
		return
	}
	r.addUsage(metal-1, sp, r.demand[metal-1])
	nr.Segments = append(nr.Segments, Segment{Metal: metal, A: a, B: b})
	nr.LenByMetal[metal] += a.ManhattanDist(b)
}

// addUsage adds delta to the committed usage of every GCell of the span on
// 0-based layer li, in span order, and refreshes the penalty of each GCell
// it touches — on falling usage (uncommit) as on rising.
func (r *router) addUsage(li int, sp span, delta float64) {
	usage := r.res.Usage[li]
	if r.pen == nil {
		for idx, end := sp.start, sp.end(); idx < end; idx += sp.stride {
			usage[idx] += delta
		}
		return
	}
	pen, capa, demand := r.pen[li], r.res.Cap[li], r.demand[li]
	for idx, end := sp.start, sp.end(); idx < end; idx += sp.stride {
		usage[idx] += delta
		pen[idx] = penaltyOf(usage[idx]+demand, capa[idx])
	}
}

// book commits the usage of already-decided segments exactly as commit
// would: the same per-cell additions, in the same order.
func (r *router) book(segs []Segment) {
	for _, s := range segs {
		r.addUsage(s.Metal-1, r.res.Grid.span(s.A, s.B), r.demand[s.Metal-1])
	}
}

// uncommit releases the usage of a routed net (for rip-up). Adding the
// negated scale is exactly IEEE subtraction of the scale. The record is
// detached from its slices, never written through them: a replayed net's
// Segments and LenByMetal belong to its donor. Rerouting the net then
// replaces the record.
func (r *router) uncommit(nr *NetRoute) {
	for _, s := range nr.Segments {
		r.addUsage(s.Metal-1, r.res.Grid.span(s.A, s.B), -r.demand[s.Metal-1])
	}
	nr.Segments, nr.LenByMetal = nil, nil
}

// ripupAndReroute rips up nets that cross overflowed GCells and re-routes
// them in a congestion-aware order. The router runs it once, after the
// main pass.
func (r *router) ripupAndReroute() {
	over, _ := grow(&r.ws.over, r.res.Grid.Cols*r.res.Grid.Rows)
	clear(over)
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
	victims, _ := grow(&r.ws.victims, len(r.geo.Order))
	victims = victims[:0]
	for _, oi := range r.geo.Order {
		nr := r.res.NetRoutes[r.geo.NetIDs[oi]]
		if nr == nil {
			continue
		}
		hit := false
		for _, s := range nr.Segments {
			sp := r.res.Grid.span(s.A, s.B)
			for idx, end := sp.start, sp.end(); idx < end && !hit; idx += sp.stride {
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
	r.sortVictims(victims)
	r.routeAll(victims)
	if r.track != nil {
		for _, oi := range victims {
			if nr := r.res.NetRoutes[r.geo.NetIDs[oi]]; nr != nil {
				r.track.addSegments(nr.Segments)
			}
		}
	}
}

// victimKey is a rip-up victim's sort key, (hash, net ID), with its
// geometry index.
type victimKey struct {
	hash   uint64
	id, oi int32
}

// sortVictims orders victims by a per-net hash of (seed, net ID), then net
// ID: deterministic and independent of how many nets this router has
// already processed, unlike a shared math/rand shuffle. Each key is
// computed once per victim; it is unique, so any sort gives one order.
func (r *router) sortVictims(victims []int32) {
	keys, _ := grow(&r.ws.keys, len(victims))
	for i, oi := range victims {
		id := r.geo.NetIDs[oi]
		keys[i] = victimKey{hash: netOrderHash(r.seed, id), id: id, oi: oi}
	}
	slices.SortFunc(keys, func(x, y victimKey) int {
		if c := cmp.Compare(x.hash, y.hash); c != 0 {
			return c
		}
		return cmp.Compare(x.id, y.id)
	})
	for i, k := range keys {
		victims[i] = k.oi
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
// Segments are axis-aligned, so each one's GCells are the strided span
// commit booked, walked in ascending index order.
func (res *Result) NetCongestion(netID int) float64 {
	if netID < 0 || netID >= len(res.NetRoutes) || res.NetRoutes[netID] == nil {
		return 0
	}
	total, n := 0.0, 0
	for _, s := range res.NetRoutes[netID].Segments {
		usage, capa := res.Usage[s.Metal-1], res.Cap[s.Metal-1]
		sp := res.Grid.span(s.A, s.B)
		for idx, end := sp.start, sp.end(); idx < end; idx += sp.stride {
			if c := capa[idx]; c > 0 {
				total += usage[idx] / c
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}
