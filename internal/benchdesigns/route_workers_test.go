package benchdesigns

import (
	"fmt"
	"testing"

	"gdsiiguard/internal/route"
)

// TestRouteWorkersBitIdentical routes real benchmark placements at 1, 2 and
// 4 wave workers and requires identical usage grids, net routes, wirelength
// and rip-up victim counts. openMSP430_2 rips up several hundred nets, so its
// victim batch goes through the wave path too.
func TestRouteWorkersBitIdentical(t *testing.T) {
	designs := []string{"PRESENT", "openMSP430_1", "openMSP430_2"}
	if testing.Short() {
		designs = designs[:1]
	}
	t.Cleanup(func() { route.SetWorkers(0) })
	for _, name := range designs {
		t.Run(name, func(t *testing.T) {
			d, err := Build(name)
			if err != nil {
				t.Fatal(err)
			}
			l := d.Layout
			routeAt := func(workers int) *route.Result {
				route.SetWorkers(workers)
				res, err := route.Route(l, route.Options{Seed: d.Spec.Seed})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := routeAt(1)
			t.Logf("%s: %d nets, %d victims", name, len(l.Netlist.Nets), want.Victims)
			for _, w := range []int{2, 4} {
				route.SetWorkers(w)
				if got := route.ResolvedWorkers(len(l.Netlist.Nets)); got < 2 {
					t.Fatalf("%d nets resolve to %d workers at SetWorkers(%d)", len(l.Netlist.Nets), got, w)
				}
				if diff := diffResults(routeAt(w), want); diff != "" {
					t.Errorf("%d workers: %s", w, diff)
				}
			}
		})
	}
}

// diffResults describes the first difference between two routing results,
// or returns "" when usage, net routes, wirelength and victims all match
// exactly.
func diffResults(got, want *route.Result) string {
	if got.TotalWL != want.TotalWL {
		return fmt.Sprintf("TotalWL %d != %d", got.TotalWL, want.TotalWL)
	}
	if got.Victims != want.Victims {
		return fmt.Sprintf("Victims %d != %d", got.Victims, want.Victims)
	}
	for li := range want.Usage {
		for i, u := range want.Usage[li] {
			if got.Usage[li][i] != u {
				return fmt.Sprintf("Usage[%d][%d] %g != %g", li, i, got.Usage[li][i], u)
			}
		}
	}
	for id, w := range want.NetRoutes {
		g := got.NetRoutes[id]
		if (g == nil) != (w == nil) {
			return fmt.Sprintf("net %d routed-ness differs", id)
		}
		if g == nil {
			continue
		}
		if len(g.Segments) != len(w.Segments) {
			return fmt.Sprintf("net %d has %d segments, want %d", id, len(g.Segments), len(w.Segments))
		}
		for i := range w.Segments {
			if g.Segments[i] != w.Segments[i] {
				return fmt.Sprintf("net %d segment %d %+v != %+v", id, i, g.Segments[i], w.Segments[i])
			}
		}
		for m := range w.LenByMetal {
			if g.LenByMetal[m] != w.LenByMetal[m] {
				return fmt.Sprintf("net %d LenByMetal[%d] %d != %d", id, m, g.LenByMetal[m], w.LenByMetal[m])
			}
		}
	}
	return ""
}
