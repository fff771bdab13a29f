package route

import (
	"gdsiiguard/internal/fault"
	"gdsiiguard/internal/geom"
	"gdsiiguard/internal/layout"
)

// WarmStats reports what a warm-started routing reused.
type WarmStats struct {
	// Replayed nets had their donor route copied verbatim.
	Replayed int
	// Rerouted nets were pattern-routed fresh (dirty nets plus promotions).
	Rerouted int
	// Promoted counts clean nets that still had to reroute because their
	// terminal bounding box intersected the accumulated change region.
	Promoted int
	// ChangedNets (filled only on success) marks every net whose timing
	// characterization inputs may differ from the donor evaluation's:
	// its route segments differ, or its route crosses the accumulated
	// change region Δ so the congestion it reads may have moved. Nets
	// outside this mask provably see identical LenByMetal and identical
	// usage along their route — delta-STA re-propagates only their cones.
	ChangedNets []bool
	// ChangedCount is the number of true entries in ChangedNets.
	ChangedCount int
	// Decline names the failed precondition when Warm returns a nil
	// Result ("" on success): "layers", "no_donor", "victims", "netlist",
	// "ndr", or "grid". The same reasons feed the
	// gdsiiguard_route_warm_decline_total metric.
	Decline string
}

// Warm routes l by replaying a donor result's routes for every net whose
// routing decision provably cannot have changed, and pattern-routing only
// the rest. The caller marks dirty[netID] for every net with a terminal on
// a cell that moved between the donor's placement and l's.
//
// The result is bit-identical to RouteWithGeometry(l, opt, geo). The
// argument is decision equality along the main routing loop:
//
//   - Nets route in descending-HPWL order; a clean (not dirty) net has the
//     same terminals, hence the same HPWL and the same position relative
//     to every other clean net, so the replayed loop visits clean nets in
//     the donor's relative order.
//   - The router's only inputs besides geometry are Usage/Cap over the
//     GCells of the net's candidate paths, all of which lie inside the
//     endpoint rectangles of its two-pin connections (see touchesDelta).
//     A change region Δ — a per-GCell mask —
//     covers every cell where usage can differ from the donor run at the
//     equivalent point: it starts as the donor paths of all dirty nets
//     (their usage is absent or different here) and grows by the old and
//     new paths of every net routed fresh. Segments are axis-aligned and
//     commit marks exactly the cells on the straight run between segment
//     endpoints, so Δ stays thin even for die-spanning nets like the
//     clock tree. A clean net whose connection rectangles all miss Δ
//     therefore reads exactly the usage the donor's run read at its turn
//     and must decide identically — its donor route is committed
//     verbatim. Anything else reroutes, which only grows Δ and keeps the
//     invariant.
//   - Rip-up passes then run on a usage/route state identical to the cold
//     run's; the victim order is a per-net hash of (seed, net ID), so it is
//     a pure function of the victim set and matches the cold run's.
//
// Preconditions (checked; failing any returns a nil Result and the caller
// falls back to a cold route): the donor routed the same netlist under an
// exactly equal NDR scale and grid, and had zero rip-up victims — a donor
// whose final routes were reshaped by rip-up no longer reflects the usage
// each net saw at its main-loop turn, so the equivalence cannot be argued.
func Warm(l *layout.Layout, opt Options, geo *Geometry, donor *Result, dirty []bool) (*Result, WarmStats, error) {
	var st WarmStats
	if err := fault.Hit(fault.Route); err != nil {
		return nil, st, err
	}
	opt = opt.withDefaults()
	lib := l.Lib()
	decline := func(reason string) (*Result, WarmStats, error) {
		st.Decline = reason
		CountWarmDecline(reason)
		return nil, st, nil
	}
	switch {
	case lib.NumLayers() < 2:
		return decline("layers")
	case donor == nil:
		return decline("no_donor")
	case donor.Victims != 0:
		return decline("victims")
	case len(donor.NetRoutes) != len(l.Netlist.Nets) || len(dirty) != len(l.Netlist.Nets):
		return decline("netlist")
	case len(donor.NDRScale) != len(l.NDR.Scale):
		return decline("ndr")
	}
	for i, s := range donor.NDRScale {
		if s != l.NDR.Scale[i] {
			return decline("ndr")
		}
	}
	grid := buildGrid(l, opt)
	if grid != donor.Grid {
		return decline("grid")
	}

	defer routeSeconds.Start().Stop()
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

	// Δ starts as the donor paths of every dirty net: wherever those
	// committed usage in the donor run, usage here is already different —
	// regardless of where the dirty net lands in the order.
	delta := newDeltaMask(grid)
	for _, id := range geo.NetIDs {
		if dirty[id] {
			if dnr := donor.NetRoutes[id]; dnr != nil {
				delta.addSegments(dnr.Segments)
			}
		}
	}

	for _, oi := range geo.Order {
		id := geo.NetIDs[oi]
		dnr := donor.NetRoutes[id]
		clean := !dirty[id] && dnr != nil
		if clean && !r.touchesDelta(delta, oi) {
			r.replay(int(id), dnr)
			st.Replayed++
			continue
		}
		if clean {
			st.Promoted++
		}
		if len(geo.Conns[oi]) == 0 {
			continue
		}
		r.routeGeoNet(int(oi))
		st.Rerouted++
		nr := res.NetRoutes[id]
		if clean && nr != nil && sameSegments(nr.Segments, dnr.Segments) {
			// The promoted net re-decided identically: it commits exactly
			// the increments the donor run committed at this turn, so the
			// usage-difference set — and therefore Δ — is unchanged. This
			// is what stops one promotion from cascading down a chain of
			// spatially adjacent nets.
			continue
		}
		if clean {
			// Its donor usage is not being committed where the donor
			// committed it, so the donor path joins Δ too (dirty nets'
			// donor paths are in Δ from initialization).
			delta.addSegments(dnr.Segments)
		}
		if nr != nil {
			delta.addSegments(nr.Segments)
		}
	}
	// Rip-up changes usage too: the ripped nets' old paths and their new
	// paths join Δ, keeping the invariant that Δ covers every GCell whose
	// final usage can differ from the donor run's.
	r.track = delta
	for p := 0; p < opt.RipupPasses; p++ {
		r.ripupAndReroute()
	}
	res.finalize()

	// Per-net change mask for delta-STA: a net's timing inputs are its
	// LenByMetal (a function of its segments) and the usage along its
	// route (NetCongestion). Identical segments + a route that misses Δ
	// means both are provably identical to the donor evaluation's.
	st.ChangedNets = make([]bool, len(l.Netlist.Nets))
	for id := range st.ChangedNets {
		dnr, nnr := donor.NetRoutes[id], res.NetRoutes[id]
		changed := false
		switch {
		case dnr == nil && nnr == nil:
		case dnr == nil || nnr == nil:
			changed = true
		case !sameSegments(nnr.Segments, dnr.Segments):
			changed = true
		case delta.touchesSegments(nnr.Segments):
			changed = true
		}
		if changed {
			st.ChangedNets[id] = true
			st.ChangedCount++
		}
	}
	return res, st, nil
}

func sameSegments(a, b []Segment) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true // replayed nets share the donor's segment slice
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// touchesDelta reports whether routing the net could read a cell of Δ.
// The router evaluates L- and Z-shaped candidates per two-pin connection,
// whose waypoints lie inside the connection's read rectangle (the endpoint
// rectangle, padded one GCell sideways for degenerate connections whose
// candidates include U-detours), so the net's true read set is the union
// of its per-connection read rectangles — much tighter than the whole-net
// terminal bounding box for multi-terminal nets like the clock tree (the
// net bbox, padded the same way, serves as a cheap pre-filter only).
func (r *router) touchesDelta(delta *deltaMask, oi int32) bool {
	bb := gcellRectOf(r.res.Grid, r.geo.BBox[oi])
	bb = padRect(r.res.Grid, bb, 1, 1)
	if !delta.overlaps(bb) {
		return false
	}
	for _, c := range r.geo.Conns[oi] {
		if delta.overlaps(connReadRect(r.res.Grid, c)) {
			return true
		}
	}
	return false
}

// connReadRect is the inclusive GCell rectangle routing the connection can
// read or write: the endpoint rectangle, padded one GCell perpendicular to
// a degenerate (straight-line) connection to cover its U-detour candidates
// (see routeTwoPin).
func connReadRect(g Grid, c Conn) gcellRect {
	q := gcellRectOf(g, geom.Rect{
		Lo: geom.Pt(minI64(c.A.X, c.B.X), minI64(c.A.Y, c.B.Y)),
		Hi: geom.Pt(maxI64(c.A.X, c.B.X), maxI64(c.A.Y, c.B.Y)),
	})
	switch {
	case c.A.X == c.B.X && absInt64(c.A.Y-c.B.Y) > g.CellH:
		q = padRect(g, q, 1, 0)
	case c.A.Y == c.B.Y && absInt64(c.A.X-c.B.X) > g.CellW:
		q = padRect(g, q, 0, 1)
	}
	return q
}

// padRect grows the rectangle by dc columns and dr rows on each side,
// clamped to the grid.
func padRect(g Grid, q gcellRect, dc, dr int) gcellRect {
	q.c0, q.r0 = g.Clamp(q.c0-dc, q.r0-dr)
	q.c1, q.r1 = g.Clamp(q.c1+dc, q.r1+dr)
	return q
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// replay commits a donor net route verbatim: usage is booked along every
// segment exactly as commit would, and the route record is copied. The
// donor's segment slice is shared (donor results are immutable; a later
// rip-up of this net replaces the NetRoute rather than mutating segments),
// while LenByMetal is copied because uncommit zeroes it in place.
func (r *router) replay(id int, dnr *NetRoute) {
	nr := &NetRoute{
		Net:        r.l.Netlist.Nets[id],
		Segments:   dnr.Segments,
		LenByMetal: append([]int64(nil), dnr.LenByMetal...),
	}
	r.book(nr.Segments)
	r.res.NetRoutes[id] = nr
}

// gcellRect is an inclusive GCell-index rectangle.
type gcellRect struct {
	c0, r0, c1, r1 int
}

// gcellRectOf converts a DBU rectangle to the inclusive GCell rectangle
// containing it (AtDBU is monotonic and clamped, so any DBU point inside
// the rectangle maps into it).
func gcellRectOf(g Grid, bb geom.Rect) gcellRect {
	c0, r0 := g.AtDBU(bb.Lo)
	c1, r1 := g.AtDBU(bb.Hi)
	return gcellRect{c0: c0, r0: r0, c1: c1, r1: r1}
}

// deltaMask is the change region Δ: one bit per GCell. Segment-granular
// (each axis-aligned segment marks only the cells on its straight run), so
// a die-spanning net contributes thin lines rather than its bounding box.
type deltaMask struct {
	g Grid
	m []bool
}

func newDeltaMask(g Grid) *deltaMask {
	return &deltaMask{g: g, m: make([]bool, g.Cols*g.Rows)}
}

// addSegments marks the GCells of every straight run — exactly the cells
// commit and uncommit touch for these segments.
func (d *deltaMask) addSegments(segs []Segment) {
	for _, s := range segs {
		c0, r0 := d.g.AtDBU(s.A)
		c1, r1 := d.g.AtDBU(s.B)
		if c1 < c0 {
			c0, c1 = c1, c0
		}
		if r1 < r0 {
			r0, r1 = r1, r0
		}
		for r := r0; r <= r1; r++ {
			row := d.m[r*d.g.Cols : (r+1)*d.g.Cols]
			for c := c0; c <= c1; c++ {
				row[c] = true
			}
		}
	}
}

// touchesSegments reports whether any GCell on the straight runs of the
// segments is marked — exactly the cells NetCongestion reads.
func (d *deltaMask) touchesSegments(segs []Segment) bool {
	for _, s := range segs {
		c0, r0 := d.g.AtDBU(s.A)
		c1, r1 := d.g.AtDBU(s.B)
		if c1 < c0 {
			c0, c1 = c1, c0
		}
		if r1 < r0 {
			r0, r1 = r1, r0
		}
		for r := r0; r <= r1; r++ {
			row := d.m[r*d.g.Cols : (r+1)*d.g.Cols]
			for c := c0; c <= c1; c++ {
				if row[c] {
					return true
				}
			}
		}
	}
	return false
}

// overlaps reports whether any GCell of the inclusive rectangle is marked.
func (d *deltaMask) overlaps(q gcellRect) bool {
	if q.c1 < q.c0 || q.r1 < q.r0 {
		return false
	}
	for r := q.r0; r <= q.r1; r++ {
		row := d.m[r*d.g.Cols : (r+1)*d.g.Cols]
		for c := q.c0; c <= q.c1; c++ {
			if row[c] {
				return true
			}
		}
	}
	return false
}
