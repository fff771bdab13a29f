package route

import (
	"cmp"
	"slices"
	"sort"

	"gdsiiguard/internal/geom"
	"gdsiiguard/internal/layout"
)

// Geometry is the placement-derived routing precomputation for one layout
// state: the routable-net list, each net's two-pin connection decomposition
// (nearest-terminal spanning tree), its terminal bounding box, and the
// routing order (descending HPWL, stable). Everything the router derives
// from the placement before touching congestion state lives here, so two
// evaluations that share a post-operator placement (same operator-gene
// prefix) can share one Geometry and skip straight to congestion-aware
// pattern routing.
//
// A Geometry is arena-independent — it stores net IDs and DBU points, not
// pointers into any particular layout clone — and immutable once built, so
// it is safe to cache in a cross-worker memo and use concurrently.
type Geometry struct {
	// NetIDs lists the routable nets (≥2 terminals, driver present) in
	// netlist order.
	NetIDs []int32
	// Order holds indices into NetIDs in routing order: descending
	// half-perimeter wirelength, ties kept in netlist order (long nets
	// first — they need the scarce upper layers).
	Order []int32
	// Conns[i] is NetIDs[i]'s two-pin connection sequence.
	Conns [][]Conn
	// BBox[i] is the bounding box of NetIDs[i]'s located terminals. Every
	// L/Z candidate waypoint of every connection lies inside it, so it
	// bounds the GCells the net's routing can ever read or write.
	BBox []geom.Rect
}

// Conn is one two-pin connection between DBU terminal points.
type Conn struct {
	A, B geom.Point
}

// BuildGeometry computes the routing geometry of the layout's current
// placement. The decomposition reproduces the router's historical
// Prim-style nearest-terminal order bit-identically.
func BuildGeometry(l *layout.Layout) *Geometry {
	nl := l.Netlist
	g := &Geometry{}
	for _, n := range nl.Nets {
		if n.NumTerms() >= 2 && n.HasDriver() {
			g.NetIDs = append(g.NetIDs, int32(n.ID))
		}
	}
	g.Conns = make([][]Conn, len(g.NetIDs))
	g.BBox = make([]geom.Rect, len(g.NetIDs))
	g.Order = make([]int32, len(g.NetIDs))
	// One pass per net: the terminal points give the bounding box, and the
	// bounding box gives the HPWL (zero below two located terminals, as in
	// Layout.NetHPWL).
	hpwl := make([]int64, len(g.NetIDs))
	for i, id := range g.NetIDs {
		g.Order[i] = int32(i)
		pts := l.NetTermPoints(nl.Nets[id])
		if len(pts) < 2 {
			continue
		}
		bb := geom.Rect{Lo: pts[0], Hi: pts[0]}
		for _, p := range pts[1:] {
			if p.X < bb.Lo.X {
				bb.Lo.X = p.X
			}
			if p.Y < bb.Lo.Y {
				bb.Lo.Y = p.Y
			}
			if p.X > bb.Hi.X {
				bb.Hi.X = p.X
			}
			if p.Y > bb.Hi.Y {
				bb.Hi.Y = p.Y
			}
		}
		hpwl[i] = bb.W() + bb.H()
		g.BBox[i] = bb
		g.Conns[i] = decompose(pts)
	}
	// Descending HPWL, ties in netlist order: the key (−HPWL, index) is
	// unique, so an unstable sort yields the stable order.
	slices.SortFunc(g.Order, func(a, b int32) int {
		if c := cmp.Compare(hpwl[b], hpwl[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return g
}

// largeNetTerms bounds the exact Prim decomposition. The nearest-pair scan
// is cubic in terminal count, which is invisible for data nets (fanout ≤ a
// few dozen) but makes a SoC-scale clock net — thousands of register clock
// pins on one net — the single slowest step of the whole evaluation. Above
// this bound the decomposition switches to the Morton-window tree.
const largeNetTerms = 96

// mortonWindow is how many Morton-order predecessors a terminal considers
// when choosing its tree parent.
const mortonWindow = 8

// decompose turns a net's terminal points (driver first) into its two-pin
// connection sequence: exact Prim for ordinary nets, and for huge-fanout
// nets (clock and other die-spanning trees) a Morton-ordered window tree —
// terminals sort along the Z-order curve and each connects to its nearest
// predecessor within a fixed window. Z-order preserves spatial locality,
// so the tree stays near the MST's wirelength at O(n log n) instead of the
// exact scan's O(n³). Both paths are pure functions of the point list, so
// determinism and Geometry immutability are unaffected.
func decompose(pts []geom.Point) []Conn {
	if len(pts) > largeNetTerms {
		return decomposeMorton(pts)
	}
	// Prim-style: start from the driver (pts[0]), connect the nearest
	// unconnected terminal to its nearest connected terminal.
	connected := []geom.Point{pts[0]}
	remaining := append([]geom.Point(nil), pts[1:]...)
	conns := make([]Conn, 0, len(remaining))
	for len(remaining) > 0 {
		bi, bj, best := 0, 0, int64(1)<<62
		for ri, p := range remaining {
			for ci, q := range connected {
				if d := p.ManhattanDist(q); d < best {
					bi, bj, best = ri, ci, d
				}
			}
		}
		conns = append(conns, Conn{A: connected[bj], B: remaining[bi]})
		connected = append(connected, remaining[bi])
		remaining = append(remaining[:bi], remaining[bi+1:]...)
	}
	return conns
}

// decomposeMorton builds the large-net window tree. Sinks sort by Morton
// code (ties by X, Y, then original terminal order, so equal points cannot
// reorder nondeterministically); the driver leads the sequence and each
// sink connects to the nearest of its mortonWindow predecessors.
func decomposeMorton(pts []geom.Point) []Conn {
	type term struct {
		p    geom.Point
		code uint64
		idx  int
	}
	sinks := make([]term, len(pts)-1)
	for i, p := range pts[1:] {
		sinks[i] = term{p: p, code: mortonCode(p), idx: i}
	}
	sort.Slice(sinks, func(a, b int) bool {
		sa, sb := sinks[a], sinks[b]
		if sa.code != sb.code {
			return sa.code < sb.code
		}
		if sa.p.X != sb.p.X {
			return sa.p.X < sb.p.X
		}
		if sa.p.Y != sb.p.Y {
			return sa.p.Y < sb.p.Y
		}
		return sa.idx < sb.idx
	})
	// chain[0] is the driver; chain[1+i] is the i-th sorted sink.
	conns := make([]Conn, len(sinks))
	for i, s := range sinks {
		lo := i + 1 - mortonWindow
		if lo < 0 {
			lo = 0
		}
		bp, best := pts[0], s.p.ManhattanDist(pts[0])
		for j := lo; j < i; j++ {
			if d := s.p.ManhattanDist(sinks[j].p); d < best {
				bp, best = sinks[j].p, d
			}
		}
		conns[i] = Conn{A: bp, B: s.p}
	}
	return conns
}

// mortonCode interleaves the low 32 bits of X and Y (clamped at zero) into
// the Z-order curve index of the point.
func mortonCode(p geom.Point) uint64 {
	return spreadBits(clamp32(p.X))<<1 | spreadBits(clamp32(p.Y))
}

func clamp32(v int64) uint32 {
	if v < 0 {
		return 0
	}
	if v > 0xFFFFFFFF {
		return 0xFFFFFFFF
	}
	return uint32(v)
}

// spreadBits spaces the 32 bits of v one apart (the classic Morton spread).
func spreadBits(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}
