package route

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"gdsiiguard/internal/geom"
	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/opencell45"
	"gdsiiguard/internal/place"
)

// meshNetlist builds chains with cross-links for routing pressure.
func meshNetlist(t testing.TB, chains, stages int) *netlist.Netlist {
	t.Helper()
	lib := opencell45.MustLoad()
	nl := netlist.New(fmt.Sprintf("mesh_%dx%d", chains, stages), lib)
	clkPort, _ := nl.AddPort("clk", netlist.In)
	clkNet, _ := nl.AddNet("clk")
	clkNet.IsClock = true
	_ = nl.ConnectPort(clkPort, clkNet)
	var lastNets []*netlist.Net
	for c := 0; c < chains; c++ {
		inPort, _ := nl.AddPort(fmt.Sprintf("in%d", c), netlist.In)
		prev, _ := nl.AddNet(fmt.Sprintf("m%d_in", c))
		_ = nl.ConnectPort(inPort, prev)
		for s := 0; s < stages; s++ {
			master := "INV_X1"
			if s%3 == 1 {
				master = "NAND2_X1"
			}
			inst, err := nl.AddInstance(fmt.Sprintf("m%d_g%d", c, s), master)
			if err != nil {
				t.Fatal(err)
			}
			next, _ := nl.AddNet(fmt.Sprintf("m%d_n%d", c, s))
			if master == "NAND2_X1" {
				_ = nl.Connect(inst, "A1", prev)
				// cross-link to previous chain for 2-D routing demand
				other := prev
				if c > 0 && s < len(lastNets) {
					other = lastNets[s]
				}
				_ = nl.Connect(inst, "A2", other)
				_ = nl.Connect(inst, "ZN", next)
			} else {
				_ = nl.Connect(inst, "A", prev)
				_ = nl.Connect(inst, "ZN", next)
			}
			prev = next
		}
		dff, _ := nl.AddInstance(fmt.Sprintf("m%d_dff", c), "DFF_X1")
		q, _ := nl.AddNet(fmt.Sprintf("m%d_q", c))
		_ = nl.Connect(dff, "D", prev)
		_ = nl.Connect(dff, "CK", clkNet)
		_ = nl.Connect(dff, "Q", q)
		outPort, _ := nl.AddPort(fmt.Sprintf("out%d", c), netlist.Out)
		_ = nl.ConnectPort(outPort, q)
		var nets []*netlist.Net
		for s := 0; s < stages; s++ {
			nets = append(nets, nl.Net(fmt.Sprintf("m%d_n%d", c, s)))
		}
		lastNets = nets
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	return nl
}

func placedMesh(t testing.TB, chains, stages int, util float64) *layout.Layout {
	t.Helper()
	nl := meshNetlist(t, chains, stages)
	l, err := place.Global(nl, place.GlobalOptions{TargetUtil: util, RefinePasses: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestRouteBasics(t *testing.T) {
	l := placedMesh(t, 6, 20, 0.6)
	res, err := Route(l, Options{Seed: 1})
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	routed := 0
	for _, nr := range res.NetRoutes {
		if nr == nil {
			continue
		}
		routed++
		if len(nr.Segments) == 0 && nr.Net.NumTerms() >= 2 {
			// zero-length connections are possible when terminals share a
			// point, but multi-terminal nets normally produce segments
			continue
		}
		for _, s := range nr.Segments {
			if s.A.X != s.B.X && s.A.Y != s.B.Y {
				t.Fatalf("non-axis-aligned segment %v on net %s", s, nr.Net.Name)
			}
			if s.Metal < 1 || s.Metal > l.Lib().NumLayers() {
				t.Fatalf("segment layer %d out of range", s.Metal)
			}
		}
	}
	if routed == 0 {
		t.Fatal("no nets routed")
	}
	if res.TotalWL <= 0 {
		t.Error("zero total wirelength")
	}
}

func TestRouteWirelengthMatchesSegments(t *testing.T) {
	l := placedMesh(t, 4, 12, 0.6)
	res, err := Route(l, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, nr := range res.NetRoutes {
		if nr == nil {
			continue
		}
		var segSum int64
		for _, s := range nr.Segments {
			segSum += s.Len()
		}
		if segSum != nr.TotalLen() {
			t.Fatalf("net %s: segments %d vs LenByMetal %d", nr.Net.Name, segSum, nr.TotalLen())
		}
		// Routed length at least the HPWL of the net.
		if hp := l.NetHPWL(nr.Net); segSum < hp {
			t.Fatalf("net %s routed %d < HPWL %d", nr.Net.Name, segSum, hp)
		}
	}
}

func TestUsageConservation(t *testing.T) {
	l := placedMesh(t, 6, 20, 0.6)
	res, err := Route(l, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for li := range res.Usage {
		for i, u := range res.Usage[li] {
			if u < -1e-9 {
				t.Fatalf("negative usage %g at layer %d gcell %d", u, li+1, i)
			}
		}
	}
	// Free tracks over the whole core equal per-gcell accounting.
	whole := res.FreeTracksInRect(l.CoreRect())
	total := res.TotalFreeTracks()
	if math.Abs(whole-total)/total > 0.05 {
		t.Errorf("FreeTracksInRect(core) = %g vs TotalFreeTracks %g", whole, total)
	}
}

func TestNDRScalingConsumesMoreTracks(t *testing.T) {
	base := placedMesh(t, 6, 20, 0.6)
	res1, err := Route(base, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	scaled := base.Clone()
	for i := range scaled.NDR.Scale {
		scaled.NDR.Scale[i] = 1.5
	}
	res2, err := Route(scaled, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res2.TotalFreeTracks() >= res1.TotalFreeTracks() {
		t.Errorf("1.5x NDR should consume more tracks: free %g vs %g",
			res2.TotalFreeTracks(), res1.TotalFreeTracks())
	}
}

func TestCongestionOverflowAtHighUtil(t *testing.T) {
	// At very high utilization and a tiny grid, some overflow is expected;
	// the router must report it rather than fail.
	l := placedMesh(t, 10, 30, 0.92)
	res, err := Route(l, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overflow < 0 {
		t.Error("negative overflow")
	}
}

func TestFreeTracksInRectSubsetMonotone(t *testing.T) {
	l := placedMesh(t, 6, 20, 0.6)
	res, err := Route(l, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	core := l.CoreRect()
	half := geom.R(core.Lo.X, core.Lo.Y, core.Lo.X+core.W()/2, core.Hi.Y)
	quarter := geom.R(core.Lo.X, core.Lo.Y, core.Lo.X+core.W()/4, core.Hi.Y)
	fHalf := res.FreeTracksInRect(half)
	fQuarter := res.FreeTracksInRect(quarter)
	if fQuarter > fHalf {
		t.Errorf("quarter free tracks %g > half %g", fQuarter, fHalf)
	}
	if res.FreeTracksInRect(geom.Rect{}) != 0 {
		t.Error("empty rect should have zero free tracks")
	}
}

func TestClockNetsUseMidStack(t *testing.T) {
	l := placedMesh(t, 4, 10, 0.6)
	res, err := Route(l, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	clk := l.Netlist.Net("clk")
	nr := res.NetRoutes[clk.ID]
	if nr == nil {
		t.Fatal("clock not routed")
	}
	for _, s := range nr.Segments {
		if s.Metal < 5 || s.Metal > 6 {
			t.Errorf("clock segment on metal%d, want 5/6", s.Metal)
		}
	}
}

func TestDeterministicRouting(t *testing.T) {
	l := placedMesh(t, 4, 12, 0.6)
	res1, err := Route(l, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Route(l, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res1.TotalWL != res2.TotalWL || res1.Overflow != res2.Overflow {
		t.Errorf("nondeterministic: WL %d/%d overflow %g/%g",
			res1.TotalWL, res2.TotalWL, res1.Overflow, res2.Overflow)
	}
}

func TestGridGeometry(t *testing.T) {
	l := placedMesh(t, 4, 10, 0.6)
	res, err := Route(l, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Grid
	if g.Cols*gcellSites < l.SitesPerRow || g.Rows*gcellRows < l.NumRows {
		t.Errorf("grid %dx%d does not cover core %dx%d", g.Cols, g.Rows, l.SitesPerRow, l.NumRows)
	}
	// AtDBU of a gcell center returns the gcell.
	for _, probe := range [][2]int{{0, 0}, {g.Cols - 1, g.Rows - 1}, {g.Cols / 2, g.Rows / 2}} {
		c, r := g.AtDBU(g.Center(probe[0], probe[1]))
		if c != probe[0] || r != probe[1] {
			t.Errorf("AtDBU(Center(%v)) = (%d,%d)", probe, c, r)
		}
	}
	// Clamping.
	if c, r := g.AtDBU(geom.Pt(-1e9, 1e9)); c != 0 || r != g.Rows-1 {
		t.Errorf("clamp = (%d,%d)", c, r)
	}
}

func TestGDSWires(t *testing.T) {
	l := placedMesh(t, 4, 10, 0.6)
	res, err := Route(l, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wires := res.GDSWires(l)
	if len(wires) == 0 {
		t.Fatal("no wires exported")
	}
	for _, w := range wires {
		if len(w.Pts) != 2 || w.Width <= 0 {
			t.Fatalf("bad wire %+v", w)
		}
	}
	// Width scales with NDR.
	l2 := l.Clone()
	for i := range l2.NDR.Scale {
		l2.NDR.Scale[i] = 1.5
	}
	res2, err := Route(l2, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w1 := wires[0].Width
	var w2 int64
	for _, w := range res2.GDSWires(l2) {
		if w.Metal == wires[0].Metal {
			w2 = w.Width
			break
		}
	}
	if w2 <= w1 {
		t.Errorf("scaled wire width %d not larger than %d", w2, w1)
	}
}

func TestRouteRejectsThinStack(t *testing.T) {
	lib := opencell45.MustLoad()
	nl := netlist.New("x", lib)
	l, _ := layout.New(nl, 2, 10)
	// Chop the layer stack via a shallow library copy is not possible on the
	// shared library; instead verify the NumLayers guard path directly is
	// unreachable here, and that routing an empty design succeeds.
	res, err := Route(l, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWL != 0 {
		t.Error("empty design routed nonzero wirelength")
	}
}

func BenchmarkRoute(b *testing.B) {
	l := placedMesh(b, 10, 30, 0.65)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Route(l, Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNetCongestion(t *testing.T) {
	l := placedMesh(t, 6, 20, 0.6)
	res, err := Route(l, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	anyPositive := false
	for _, nr := range res.NetRoutes {
		if nr == nil {
			continue
		}
		cg := res.NetCongestion(nr.Net.ID)
		if cg < 0 {
			t.Fatalf("negative congestion %g", cg)
		}
		if cg > 0 {
			anyPositive = true
		}
	}
	if !anyPositive {
		t.Error("no net reports congestion")
	}
	// Out-of-range and unrouted IDs are safe.
	if res.NetCongestion(-1) != 0 || res.NetCongestion(1<<20) != 0 {
		t.Error("bad IDs should report zero")
	}
}

// TestRouteAllocs pins a cold route to a fixed number of allocations
// whatever the net count: the result's grids, the penalty table and one
// set of slabs per routing pass, never a record per net. A pass's first
// segment slab holds each connection's fewest segments and may run short,
// which costs that pass one more slab, so two routes may differ by at
// most one allocation per pass. The fixtures run once without and once
// with rip-up victims (every layer 1.5 wide).
func TestRouteAllocs(t *testing.T) {
	for _, wide := range []bool{false, true} {
		allocs := func(chains, stages int) (float64, int, int) {
			l := placedMesh(t, chains, stages, 0.6)
			if wide {
				for i := range l.NDR.Scale {
					l.NDR.Scale[i] = 1.5
				}
			}
			geo := BuildGeometry(l)
			res, err := RouteWithGeometry(l, Options{Seed: 4}, geo)
			if err != nil {
				t.Fatal(err)
			}
			n := testing.AllocsPerRun(10, func() { RouteWithGeometry(l, Options{Seed: 4}, geo) })
			return n, len(l.Netlist.Nets), res.Victims
		}
		a, netsA, victimsA := allocs(4, 20)
		b, netsB, victimsB := allocs(12, 40)
		if netsB < 4*netsA || (victimsA == 0) != (victimsB == 0) || (victimsA == 0) == wide {
			t.Fatalf("wide %v fixture: %d nets with %d victims, %d nets with %d victims", wide, netsA, victimsA, netsB, victimsB)
		}
		passes := 1.0
		if wide {
			passes++
		}
		if math.Abs(a-b) > passes {
			t.Errorf("wide %v: route allocations %v on %d nets, %v on %d", wide, a, netsA, b, netsB)
		}
	}
}

// refNetCongestion is a verbatim copy of NetCongestion as it was before
// it walked spans: each segment's GCell rectangle from AtDBU, by nested
// row and column loops.
func refNetCongestion(res *Result, netID int) float64 {
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

// TestNetCongestionMatchesReference compares NetCongestion bit for bit
// with the reference on random results: random grids, usages and
// capacities (zero capacity included), and routes of random axis-aligned
// segments, some zero-length and some reaching past the grid, where the
// GCell mapping clamps.
func TestNetCongestionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		g := Grid{Cols: 1 + rng.Intn(30), Rows: 1 + rng.Intn(30), CellW: 1 + rng.Int63n(2000), CellH: 1 + rng.Int63n(3000),
			Origin: geom.Pt(rng.Int63n(1000), rng.Int63n(1000))}
		const layers = 4
		res := &Result{Grid: g, Usage: layerGrids[float64](layers, g.Cols*g.Rows), Cap: layerGrids[float64](layers, g.Cols*g.Rows)}
		for li := 0; li < layers; li++ {
			for i := range res.Cap[li] {
				if rng.Intn(8) != 0 {
					res.Cap[li][i] = 12 * rng.Float64()
				}
				res.Usage[li][i] = 15 * rng.Float64()
			}
		}
		coord := func(o, cell int64, n int) int64 { return o - cell + rng.Int63n(cell*int64(n+2)) }
		for id := 0; id < 20; id++ {
			if rng.Intn(5) == 0 {
				res.NetRoutes = append(res.NetRoutes, nil)
				continue
			}
			nr := &NetRoute{}
			for k := rng.Intn(7); k > 0; k-- {
				a := geom.Pt(coord(g.Origin.X, g.CellW, g.Cols), coord(g.Origin.Y, g.CellH, g.Rows))
				b := a
				switch rng.Intn(3) {
				case 0:
					b.X = coord(g.Origin.X, g.CellW, g.Cols)
				case 1:
					b.Y = coord(g.Origin.Y, g.CellH, g.Rows)
				}
				nr.Segments = append(nr.Segments, Segment{Metal: 1 + rng.Intn(layers), A: a, B: b})
			}
			res.NetRoutes = append(res.NetRoutes, nr)
		}
		for id := -1; id <= len(res.NetRoutes); id++ {
			got, want := res.NetCongestion(id), refNetCongestion(res, id)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d net %d: NetCongestion %v, reference %v", trial, id, got, want)
			}
		}
	}
}

func TestLayerPairsSpillBothWays(t *testing.T) {
	l := placedMesh(t, 2, 5, 0.5)
	res, err := Route(l, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	r := newRouter(l, res, nil, 0)
	pairs := r.layerPairs(30_000, false) // mid class
	if len(pairs) != l.Lib().NumLayers()/2 {
		t.Fatalf("pairs = %d, want full ladder", len(pairs))
	}
	// The preferred pair comes first; both spill directions appear.
	first := pairs[0]
	if first[0] != 3 && first[1] != 3 {
		t.Errorf("mid-class preferred pair = %v, want metal3/4", first)
	}
	seen := map[int]bool{}
	for _, p := range pairs {
		seen[p[0]] = true
		seen[p[1]] = true
	}
	for m := 1; m <= l.Lib().NumLayers(); m++ {
		if !seen[m] {
			t.Errorf("metal%d missing from ladder", m)
		}
	}
}

// TestNetOrderHashSelfContained pins the tie-break key down: it must be
// deterministic, seed-sensitive, and collision-free over realistic net-ID
// ranges, because the rip-up victim order (and therefore every routed
// result) follows from it.
func TestNetOrderHashSelfContained(t *testing.T) {
	if netOrderHash(1, 42) != netOrderHash(1, 42) {
		t.Fatal("hash is not deterministic")
	}
	if netOrderHash(1, 42) == netOrderHash(2, 42) {
		t.Error("hash ignores the seed")
	}
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		seen := make(map[uint64]int32, 1<<14)
		for id := int32(0); id < 1<<14; id++ {
			h := netOrderHash(seed, id)
			if prev, dup := seen[h]; dup {
				t.Fatalf("seed %d: ids %d and %d collide", seed, prev, id)
			}
			seen[h] = id
		}
	}
}

// TestRipupUnderPressure forces rip-up (wide NDR on a dense mesh) so the
// hashed victim ordering and the reroute of the victim batch both run. The
// result must be reproducible, and the usage grid must still equal the
// usage of the final routes after every rip-up and reroute.
func TestRipupUnderPressure(t *testing.T) {
	l := placedMesh(t, 10, 30, 0.75)
	for i := range l.NDR.Scale {
		l.NDR.Scale[i] = 1.5
	}
	want, err := Route(l, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want.Victims == 0 {
		t.Fatal("fixture rips up no nets")
	}
	t.Logf("pressure fixture: victims=%d overflow=%.1f", want.Victims, want.Overflow)
	got, err := Route(l, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "pressure", got, want)

	booked := make([][]float64, len(want.Usage))
	for li := range booked {
		booked[li] = make([]float64, len(want.Usage[li]))
	}
	for _, nr := range want.NetRoutes {
		if nr == nil {
			continue
		}
		for _, s := range nr.Segments {
			sp := want.Grid.span(s.A, s.B)
			for idx, end := sp.start, sp.end(); idx < end; idx += sp.stride {
				booked[s.Metal-1][idx] += l.NDR.LayerScale(s.Metal)
			}
		}
	}
	for li := range booked {
		for i, u := range booked[li] {
			if math.Abs(want.Usage[li][i]-u) > 1e-6 {
				t.Fatalf("layer %d gcell %d: usage %g, final routes book %g", li+1, i, want.Usage[li][i], u)
			}
		}
	}
}

// TestRouteConcurrentCallers routes the same layout from several goroutines
// at once — the exploration loop's shape (concurrent arenas, shared
// geometry) — and checks every result. Run under -race this is the
// router's data-race gate.
func TestRouteConcurrentCallers(t *testing.T) {
	l := placedLocalMesh(t, 8, 60, 40, 160)
	geo := BuildGeometry(l)
	want, err := RouteWithGeometry(l, Options{Seed: 5}, geo)
	if err != nil {
		t.Fatal(err)
	}

	const callers = 4
	results := make([]*Result, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := RouteWithGeometry(l, Options{Seed: 5}, geo)
			if err != nil {
				t.Errorf("caller %d: %v", c, err)
				return
			}
			results[c] = res
		}()
	}
	wg.Wait()
	for _, res := range results {
		if res != nil {
			sameResults(t, "concurrent", res, want)
		}
	}
}
