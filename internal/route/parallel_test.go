package route

import (
	"runtime"
	"sync"
	"testing"

	"gdsiiguard/internal/geom"
	"gdsiiguard/internal/layout"
)

// withWorkers forces the wave-parallel worker count for the duration of the
// test and restores auto-selection afterwards. The test machine may have a
// single CPU, so parallelism is always forced explicitly rather than
// inherited from GOMAXPROCS.
func withWorkers(t testing.TB, n int) {
	t.Helper()
	SetWorkers(n)
	t.Cleanup(func() { SetWorkers(0) })
}

func TestResolvedWorkers(t *testing.T) {
	withWorkers(t, 4)
	if got := ResolvedWorkers(parallelMinNets - 1); got != 1 {
		t.Errorf("below threshold: %d workers, want 1", got)
	}
	if got := ResolvedWorkers(10 * parallelMinNets); got != 4 {
		t.Errorf("large batch: %d workers, want 4", got)
	}
	// The per-worker floor keeps speculation batches from getting uselessly
	// small.
	if got := ResolvedWorkers(parallelMinNets); got > parallelMinNets/minNetsPerWorker {
		t.Errorf("tiny batch resolved to %d workers", got)
	}
	SetWorkers(1)
	if got := ResolvedWorkers(10 * parallelMinNets); got != 1 {
		t.Errorf("SetWorkers(1): %d workers, want 1", got)
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

// routeForced routes l with an explicitly forced worker count and asserts
// the batch was large enough for the setting to actually bind (so a silent
// fall-through to the sequential path cannot fake a pass).
func routeForced(t *testing.T, l *layout.Layout, seed int64, workers int) *Result {
	t.Helper()
	SetWorkers(workers)
	if workers > 1 {
		if got := ResolvedWorkers(len(l.Netlist.Nets)); got < 2 {
			t.Fatalf("fixture too small: %d nets resolve to %d workers", len(l.Netlist.Nets), got)
		}
	}
	res, err := Route(l, Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestParallelMatchesSequential is the wave-parallel equivalence gate:
// routing with any worker count must be bit-identical — routes, usage grid,
// wirelength, victims — to the sequential loop, across seeds and fixtures.
// Worker counts also move the speculation batch boundaries, so this doubles
// as the batch-order regression test.
func TestParallelMatchesSequential(t *testing.T) {
	t.Cleanup(func() { SetWorkers(0) })
	fixtures := map[string]*layout.Layout{
		"globalMesh": placedMesh(t, 8, 30, 0.6),
		"localMesh":  placedLocalMesh(t, 8, 60, 40, 160),
	}
	for name, l := range fixtures {
		for _, seed := range []int64{1, 2, 9} {
			want := routeForced(t, l, seed, 1)
			for _, w := range []int{2, 3, 4, 8} {
				got := routeForced(t, l, seed, w)
				sameResults(t, name, got, want)
				if got.Victims != want.Victims {
					t.Errorf("%s seed %d workers %d: victims %d != %d",
						name, seed, w, got.Victims, want.Victims)
				}
			}
		}
	}
}

// TestParallelIndependentOfGOMAXPROCS pins scheduler independence: the same
// forced worker count must produce the same bits whether the runtime runs
// goroutines one at a time or genuinely in parallel.
func TestParallelIndependentOfGOMAXPROCS(t *testing.T) {
	withWorkers(t, 8)
	l := placedLocalMesh(t, 8, 60, 40, 160)

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	serial, err := Route(l, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(8)
	parallel, err := Route(l, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "gomaxprocs", parallel, serial)
}

// TestParallelUnderPressure forces rip-up (wide NDR on a dense mesh) so the
// hashed victim ordering and the wave-parallel reroute of the victim batch
// are both exercised and stay bit-identical to the sequential run.
func TestParallelUnderPressure(t *testing.T) {
	t.Cleanup(func() { SetWorkers(0) })
	l := placedMesh(t, 10, 30, 0.75)
	for i := range l.NDR.Scale {
		l.NDR.Scale[i] = 1.5
	}
	want := routeForced(t, l, 4, 1)
	t.Logf("pressure fixture: victims=%d overflow=%.1f", want.Victims, want.Overflow)
	for _, w := range []int{2, 4} {
		got := routeForced(t, l, 4, w)
		sameResults(t, "pressure", got, want)
		if got.Victims != want.Victims {
			t.Errorf("workers %d: victims %d != %d", w, got.Victims, want.Victims)
		}
	}
}

// TestParallelRouteConcurrentCallers routes the same layout from several
// goroutines at once, each with wave-parallel workers enabled — the
// exploration loop's shape (concurrent arenas, shared geometry) — and
// checks every result. Run under -race this is the router's data-race gate.
func TestParallelRouteConcurrentCallers(t *testing.T) {
	withWorkers(t, 4)
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
		c := c
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
	for c, res := range results {
		if res == nil {
			continue
		}
		_ = c
		sameResults(t, "concurrent", res, want)
	}
}

// TestWaveSpeculatesEachNetAtMostOnce bounds the speculation work: across
// the main batch and the rip-up victim batch, no net is routed
// speculatively more than once. The pressure fixture rips up more than
// parallelMinNets nets, so the victim batch runs through the waves too.
func TestWaveSpeculatesEachNetAtMostOnce(t *testing.T) {
	withWorkers(t, 2)
	l := placedMesh(t, 10, 30, 0.75)
	for i := range l.NDR.Scale {
		l.NDR.Scale[i] = 1.5
	}
	geo := BuildGeometry(l)
	specs := func(opt Options) (int64, *Result) {
		before := speculated.Load()
		res, err := RouteWithGeometry(l, opt, geo)
		if err != nil {
			t.Fatal(err)
		}
		return speculated.Load() - before, res
	}
	mainOnly, _ := specs(Options{Seed: 4, DisableRipup: true})
	withRipup, res := specs(Options{Seed: 4})
	if ResolvedWorkers(res.Victims) < 2 {
		t.Fatalf("fixture rips up only %d nets: the victim batch stays sequential", res.Victims)
	}
	if mainOnly <= 0 || mainOnly > int64(len(geo.Order)) {
		t.Errorf("main batch: %d speculative routes for %d nets", mainOnly, len(geo.Order))
	}
	// Routing is deterministic, so the main batch speculates the same nets
	// in both runs; the difference is the victim batch's share.
	if victims := withRipup - mainOnly; victims <= 0 || victims > int64(res.Victims) {
		t.Errorf("victim batch: %d speculative routes for %d victims", victims, res.Victims)
	}
}

// TestWaveOverlayIsPerNet pins the per-net speculation overlay. In one
// window, net A (worker 0) commits first and makes net B (worker 1) choose
// another route than it speculated, so B is routed again inline. Net C
// (worker 1, after B) reads cells that only B's discarded speculation
// wrote, and its read rectangle misses everything committed before it, so
// its speculation is accepted. If C's worker kept B's speculative writes
// in its overlay, C would have priced them and taken another layer than the
// sequential router does.
func TestWaveOverlayIsPerNet(t *testing.T) {
	l := placedLocalMesh(t, 8, 60, 40, 160) // supplies the library, NDR and nets
	g := buildGrid(l, Options{}.withDefaults())
	var ids []int32
	for _, n := range l.Netlist.Nets {
		if !n.IsClock && len(ids) < 4 {
			ids = append(ids, int32(n.ID))
		}
	}
	at := func(c, r int) geom.Point { return g.Center(c, r) }
	conn := func(c0, r0, c1, r1 int) []Conn { return []Conn{{A: at(c0, r0), B: at(c1, r1)}} }
	geo := &Geometry{
		NetIDs: ids,
		Order:  []int32{0, 1, 2, 3},
		// A, B, a net without connections (keeps C on B's worker), C.
		Conns: [][]Conn{conn(1, 0, 2, 0), conn(0, 0, 3, 3), nil, conn(3, 1, 3, 2)},
	}
	geo.BBox = make([]geom.Rect, len(ids))
	for i, cs := range geo.Conns {
		for _, c := range cs {
			geo.BBox[i] = geom.Rect{Lo: c.A, Hi: c.B}
		}
	}
	probe := newRouter(l, nil, nil, 0)
	pair := probe.layerPairs(at(0, 0).ManhattanDist(at(3, 3)), false)[0]
	if a := probe.layerPairs(at(1, 0).ManhattanDist(at(2, 0)), false)[0]; a != pair {
		t.Fatalf("A prefers layers %v, B %v", a, pair)
	}
	hl, vl := pair[0]-1, pair[1]-1

	// Ample capacity everywhere except two cells: after A's wire, B's
	// first L (along row 0) pays a congestion penalty at (2, 0), so B takes
	// the other L; and one more wire than C's own at (3, 1) — where only B's
	// speculative L would put it — overflows C's preferred vertical layer.
	fresh := func() *Result {
		res := &Result{Grid: g, NetRoutes: make([]*NetRoute, len(l.Netlist.Nets))}
		for li := 0; li < l.Lib().NumLayers(); li++ {
			capacity := make([]float64, g.Cols*g.Rows)
			for i := range capacity {
				capacity[i] = 100
			}
			res.Usage = append(res.Usage, make([]float64, g.Cols*g.Rows))
			res.Cap = append(res.Cap, capacity)
		}
		res.Cap[hl][g.Index(2, 0)] = 2
		res.Cap[vl][g.Index(3, 1)] = 1.5
		return res
	}
	routeSeq := func(order ...int32) *Result {
		r := newRouter(l, fresh(), geo, 0)
		for _, oi := range order {
			r.routeGeoNet(int(oi))
		}
		return r.res
	}
	want := routeSeq(0, 1, 2, 3)

	// The fixture must put the overlay to work: B's route against the
	// snapshot differs from its committed one, and C decides differently
	// once B's speculative route is in the usage it reads.
	bAlone := routeSeq(1).NetRoutes[ids[1]]
	if sameSegments(bAlone.Segments, want.NetRoutes[ids[1]].Segments) {
		t.Fatal("fixture: A does not change B's route")
	}
	if cAfterB := routeSeq(1, 3).NetRoutes[ids[3]]; sameSegments(cAfterB.Segments, want.NetRoutes[ids[3]].Segments) {
		t.Fatal("fixture: B's speculative route does not change C's route")
	}

	r := newRouter(l, fresh(), geo, 0)
	r.routeWaves(geo.Order, 2)
	sameResults(t, "overlay", r.res, want)
}
