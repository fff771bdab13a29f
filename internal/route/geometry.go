package route

import (
	"cmp"
	"slices"

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
//
// It allocates a fixed number of times whatever the design size: terminal
// points and the decomposition's working sets live in buffers reused from
// net to net, and every net's Conns is carved from one slab with a full
// slice expression (cap = len), so the nets never share capacity.
func BuildGeometry(l *layout.Layout) *Geometry {
	nl := l.Netlist
	// Size everything first: the routable nets, an upper bound on their
	// connections (one per terminal after the driver) and the largest
	// terminal count, which bounds every scratch buffer.
	numNets, numConns, maxTerms := 0, 0, 0
	for _, n := range nl.Nets {
		if t := n.NumTerms(); t >= 2 && n.HasDriver() {
			numNets++
			numConns += t - 1
			maxTerms = max(maxTerms, t)
		}
	}
	g := &Geometry{
		NetIDs: make([]int32, 0, numNets),
		Order:  make([]int32, numNets),
		Conns:  make([][]Conn, numNets),
		BBox:   make([]geom.Rect, numNets),
	}
	for _, n := range nl.Nets {
		if n.NumTerms() >= 2 && n.HasDriver() {
			g.NetIDs = append(g.NetIDs, int32(n.ID))
		}
	}
	d := newDecomposer(maxTerms)
	slab := make([]Conn, 0, numConns)
	pts := make([]geom.Point, 0, maxTerms)
	// One pass per net: the terminal points give the bounding box, and the
	// bounding box gives the HPWL (zero below two located terminals, as in
	// Layout.NetHPWL), kept in key until the order is sorted.
	key := make([]uint64, numNets)
	var maxHPWL int64
	for i, id := range g.NetIDs {
		pts = l.AppendNetTermPoints(pts[:0], nl.Nets[id])
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
		hpwl := bb.W() + bb.H()
		key[i] = uint64(hpwl)
		maxHPWL = max(maxHPWL, hpwl)
		g.BBox[i] = bb
		at := len(slab)
		slab = d.decompose(slab, pts)
		g.Conns[i] = slab[at:len(slab):len(slab)]
	}
	sortByHPWL(g.Order, key, maxHPWL)
	return g
}

// sortByHPWL fills order with the indices 0..len(order)-1 in routing order:
// descending HPWL, ties in netlist order. key[i] holds net i's HPWL on
// entry and is overwritten.
//
// When every HPWL fits, the key becomes (maxHPWL−HPWL)<<32 | i — ascending
// keys are descending HPWL with ties by index — and a plain integer sort
// replaces a two-key comparison closure. The key is unique, so this is
// exactly the stable order; so is the closure sort the rare oversized die
// falls back to.
func sortByHPWL(order []int32, key []uint64, maxHPWL int64) {
	if maxHPWL < 1<<32 {
		for i := range key {
			key[i] = uint64(maxHPWL-int64(key[i]))<<32 | uint64(i)
		}
		slices.Sort(key)
		for i, k := range key {
			order[i] = int32(uint32(k))
		}
		return
	}
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(key[b], key[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
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

// decomposer holds the working sets of decompose, reused from net to net.
type decomposer struct {
	connected, remaining []geom.Point
	sinks                []mortonTerm
}

// mortonTerm is one sink of a large net in Morton order.
type mortonTerm struct {
	p    geom.Point
	code uint64
	idx  int
}

// newDecomposer sizes the working sets for nets of up to maxTerms
// terminals, so decompose never allocates.
func newDecomposer(maxTerms int) *decomposer {
	prim := min(maxTerms, largeNetTerms)
	d := &decomposer{
		connected: make([]geom.Point, 0, prim),
		remaining: make([]geom.Point, 0, prim),
	}
	if maxTerms > largeNetTerms {
		d.sinks = make([]mortonTerm, 0, maxTerms-1)
	}
	return d
}

// decompose appends a net's two-pin connection sequence for its terminal
// points (driver first) to dst: exact Prim for ordinary nets, and for
// huge-fanout nets (clock and other die-spanning trees) a Morton-ordered
// window tree — terminals sort along the Z-order curve and each connects
// to its nearest predecessor within a fixed window. Z-order preserves
// spatial locality, so the tree stays near the MST's wirelength at
// O(n log n) instead of the exact scan's O(n³). Both paths are pure
// functions of the point list, so determinism and Geometry immutability
// are unaffected.
func (d *decomposer) decompose(dst []Conn, pts []geom.Point) []Conn {
	if len(pts) > largeNetTerms {
		return d.decomposeMorton(dst, pts)
	}
	// Prim-style: start from the driver (pts[0]), connect the nearest
	// unconnected terminal to its nearest connected terminal.
	connected := append(d.connected[:0], pts[0])
	remaining := append(d.remaining[:0], pts[1:]...)
	for len(remaining) > 0 {
		bi, bj, best := 0, 0, int64(1)<<62
		for ri, p := range remaining {
			for ci, q := range connected {
				if dist := p.ManhattanDist(q); dist < best {
					bi, bj, best = ri, ci, dist
				}
			}
		}
		dst = append(dst, Conn{A: connected[bj], B: remaining[bi]})
		connected = append(connected, remaining[bi])
		remaining = append(remaining[:bi], remaining[bi+1:]...)
	}
	d.connected, d.remaining = connected, remaining
	return dst
}

// decomposeMorton appends the large-net window tree. Sinks sort by Morton
// code (ties by X, Y, then original terminal order, so equal points cannot
// reorder nondeterministically); the driver leads the sequence and each
// sink connects to the nearest of its mortonWindow predecessors.
func (d *decomposer) decomposeMorton(dst []Conn, pts []geom.Point) []Conn {
	sinks := d.sinks[:0]
	for i, p := range pts[1:] {
		sinks = append(sinks, mortonTerm{p: p, code: mortonCode(p), idx: i})
	}
	// The key (code, X, Y, idx) is unique, so any sort gives one order.
	slices.SortFunc(sinks, func(sa, sb mortonTerm) int {
		if c := cmp.Compare(sa.code, sb.code); c != 0 {
			return c
		}
		if c := cmp.Compare(sa.p.X, sb.p.X); c != 0 {
			return c
		}
		if c := cmp.Compare(sa.p.Y, sb.p.Y); c != 0 {
			return c
		}
		return cmp.Compare(sa.idx, sb.idx)
	})
	// chain[0] is the driver; chain[1+i] is the i-th sorted sink.
	for i, s := range sinks {
		lo := max(i+1-mortonWindow, 0)
		bp, best := pts[0], s.p.ManhattanDist(pts[0])
		for j := lo; j < i; j++ {
			if dist := s.p.ManhattanDist(sinks[j].p); dist < best {
				bp, best = sinks[j].p, dist
			}
		}
		dst = append(dst, Conn{A: bp, B: s.p})
	}
	d.sinks = sinks
	return dst
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
