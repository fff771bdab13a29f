package route

import (
	"math"
	"testing"

	"gdsiiguard/internal/fault"
	"gdsiiguard/internal/layout"
)

// sameRecycled is sameResults plus the summaries and NDR snapshot a
// recycled route overwrites in place: it must leave nothing of the
// workspace's previous route behind.
func sameRecycled(t *testing.T, label string, got, want *Result) {
	t.Helper()
	sameResults(t, label, got, want)
	if len(got.NetRoutes) != len(want.NetRoutes) {
		t.Fatalf("%s: %d net routes, want %d", label, len(got.NetRoutes), len(want.NetRoutes))
	}
	if math.Float64bits(got.Overflow) != math.Float64bits(want.Overflow) || got.OverflowGCells != want.OverflowGCells {
		t.Errorf("%s: overflow %v over %d GCells, want %v over %d", label, got.Overflow, got.OverflowGCells, want.Overflow, want.OverflowGCells)
	}
	if len(got.NDRScale) != len(want.NDRScale) {
		t.Fatalf("%s: NDR scale %v, want %v", label, got.NDRScale, want.NDRScale)
	}
	for i := range want.NDRScale {
		if got.NDRScale[i] != want.NDRScale[i] {
			t.Fatalf("%s: NDR scale %v, want %v", label, got.NDRScale, want.NDRScale)
		}
	}
}

// widen sets every layer's NDR width scale, which on the dense meshes
// below forces rip-up victims.
func widen(l *layout.Layout, scale float64) {
	for i := range l.NDR.Scale {
		l.NDR.Scale[i] = scale
	}
}

// routeFixtures are layouts that differ in placement, NDR, rip-up and
// grid shape, so each route into a shared workspace follows one that
// held something else.
func routeFixtures(t *testing.T) []*layout.Layout {
	t.Helper()
	a := placedMesh(t, 6, 20, 0.6)
	b := placedMesh(t, 10, 30, 0.75)
	widen(b, 1.5)
	c := placedLocalMesh(t, 8, 60, 40, 160)
	d := placedMesh(t, 6, 20, 0.6)
	widen(d, 1.2)
	return []*layout.Layout{a, b, c, d, a, b}
}

// unrouted is geo with every third net's connections dropped: those nets
// stay unrouted, as nets with fewer than two located terminals do.
func unrouted(geo *Geometry) *Geometry {
	out := *geo
	out.Conns = append([][]Conn(nil), geo.Conns...)
	for oi := 0; oi < len(out.Conns); oi += 3 {
		out.Conns[oi] = nil
	}
	return &out
}

// TestWorkspaceRouteMatchesFresh routes a sequence of layouts into one
// workspace: another placement, another NDR, rip-up and none, a different
// grid, and the same layout with some nets left unrouted. Each recycled
// route must equal a fresh route of the same layout bit for bit, which it
// can only do if every route reinitializes all the state it reads.
func TestWorkspaceRouteMatchesFresh(t *testing.T) {
	var ws Workspace
	victims := 0
	for i, l := range routeFixtures(t) {
		full := BuildGeometry(l)
		for _, geo := range []*Geometry{full, unrouted(full)} {
			opt := Options{Seed: int64(3 + i)}
			want, err := RouteWithGeometry(l, opt, geo)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ws.Route(l, opt, geo)
			if err != nil {
				t.Fatal(err)
			}
			sameRecycled(t, "recycled", got, want)
			victims += want.Victims
		}
	}
	if victims == 0 {
		t.Fatal("fixtures rip up no nets")
	}
}

// TestWorkspaceRecoversFromFailedRoute leaves a workspace behind a failed
// route — an injected fault.Route error or panic, a route that panicked
// halfway through its first pass, and garbage in every buffer — and
// requires the next recycled route to equal a fresh one.
func TestWorkspaceRecoversFromFailedRoute(t *testing.T) {
	l := placedMesh(t, 10, 30, 0.75)
	widen(l, 1.5)
	geo := BuildGeometry(l)
	opt := Options{Seed: 4}
	want, err := RouteWithGeometry(l, opt, geo)
	if err != nil {
		t.Fatal(err)
	}
	if want.Victims == 0 {
		t.Fatal("fixture rips up no nets")
	}
	other := placedMesh(t, 6, 20, 0.6)
	otherGeo := BuildGeometry(other)

	// broken is the geometry with the last routed net's ID out of range:
	// routing it panics after every earlier net has committed.
	broken := *geo
	broken.NetIDs = append([]int32(nil), geo.NetIDs...)
	for i := len(geo.Order) - 1; i >= 0; i-- {
		if oi := geo.Order[i]; len(geo.Conns[oi]) > 0 {
			broken.NetIDs[oi] = int32(len(l.Netlist.Nets) + 7)
			break
		}
	}

	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	failures := []struct {
		name string
		fail func(t *testing.T, ws *Workspace)
	}{
		{"fault error", func(t *testing.T, ws *Workspace) {
			fault.Arm(map[fault.Point]fault.Rule{fault.Route: {Every: 1, Limit: 1}})
			defer fault.Disarm()
			if _, err := ws.Route(l, opt, geo); err == nil {
				t.Fatal("injected route error did not surface")
			}
		}},
		{"fault panic", func(t *testing.T, ws *Workspace) {
			fault.Arm(map[fault.Point]fault.Rule{fault.Route: {Every: 1, Limit: 1, Panic: true}})
			defer fault.Disarm()
			if !panics(func() { ws.Route(l, opt, geo) }) {
				t.Fatal("injected route panic did not fire")
			}
		}},
		{"panic halfway", func(t *testing.T, ws *Workspace) {
			if !panics(func() { ws.Route(l, opt, &broken) }) {
				t.Fatal("broken geometry routed without a panic")
			}
		}},
		{"poisoned", func(t *testing.T, ws *Workspace) {
			nan := math.NaN()
			for li := range ws.usage {
				for i := range ws.usage[li] {
					ws.usage[li][i], ws.capa[li][i] = nan, nan
					ws.pen[li][i] = penalty{nan, nan}
				}
			}
			for i := range ws.netRoutes {
				ws.netRoutes[i] = &NetRoute{}
			}
			for _, sl := range ws.passes {
				lens := sl.lens[:cap(sl.lens)]
				for i := range lens {
					lens[i] = -1
				}
			}
			for i := range ws.over {
				ws.over[i] = true
			}
			ws.ndr = append(ws.ndr[:0], 9, 9, 9)
		}},
	}
	for _, f := range failures {
		t.Run(f.name, func(t *testing.T) {
			var ws Workspace
			// The workspace first holds a complete route of another
			// layout, then the failure.
			if _, err := ws.Route(other, opt, otherGeo); err != nil {
				t.Fatal(err)
			}
			if _, err := ws.Route(l, opt, geo); err != nil {
				t.Fatal(err)
			}
			f.fail(t, &ws)
			got, err := ws.Route(l, opt, geo)
			if err != nil {
				t.Fatal(err)
			}
			sameRecycled(t, f.name, got, want)
		})
	}
}

// TestWorkspaceRouteAllocs pins a recycled route at a small fixed number
// of allocations — the router's per-call set-up, never a grid, a slab or a
// record — that does not grow with the net count, with and without rip-up
// victims.
func TestWorkspaceRouteAllocs(t *testing.T) {
	const maxAllocs = 12
	for _, wide := range []bool{false, true} {
		allocs := func(chains, stages int) (float64, int, int) {
			l := placedMesh(t, chains, stages, 0.6)
			if wide {
				widen(l, 1.5)
			}
			geo := BuildGeometry(l)
			var ws Workspace
			res, err := ws.Route(l, Options{Seed: 4}, geo)
			if err != nil {
				t.Fatal(err)
			}
			victims := res.Victims
			return testing.AllocsPerRun(10, func() { ws.Route(l, Options{Seed: 4}, geo) }), len(l.Netlist.Nets), victims
		}
		a, netsA, victimsA := allocs(4, 20)
		b, netsB, victimsB := allocs(12, 40)
		if netsB < 4*netsA || (victimsA == 0) != (victimsB == 0) || (victimsA == 0) == wide {
			t.Fatalf("wide %v fixture: %d nets with %d victims, %d nets with %d victims", wide, netsA, victimsA, netsB, victimsB)
		}
		if a != b || b > maxAllocs {
			t.Errorf("wide %v: recycled route allocations %v on %d nets, %v on %d (at most %d)", wide, a, netsA, b, netsB, maxAllocs)
		}
	}
}
