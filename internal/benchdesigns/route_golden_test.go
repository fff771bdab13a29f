package benchdesigns

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/route"
)

// routeGolden pins one benchmark placement's routing outcome: an FNV-1a
// hash of every net's segments in net-ID order, the total wirelength, the
// bits of the overflow sum, and the rip-up victim count.
type routeGolden struct {
	segHash  uint64
	totalWL  int64
	overflow uint64
	victims  int
}

// routeGoldens were recorded from the closure-based pattern-route kernel
// that priced every candidate in full. They catch any change of routing
// decision across kernel rewrites.
var routeGoldens = map[string]routeGolden{
	"PRESENT":      {segHash: 0x20b6374595113788, totalWL: 8424948, overflow: 0, victims: 0},
	"openMSP430_1": {segHash: 0x48e1e7de0ba9e5ef, totalWL: 14474719, overflow: 0, victims: 0},
	"openMSP430_2": {segHash: 0x12eedcf845c1b1ac, totalWL: 45623296, overflow: 0x4040399fc267f0a0, victims: 906},
}

// goldenOf reduces a routing result to its pinned fields.
func goldenOf(res *route.Result) routeGolden {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for id, nr := range res.NetRoutes {
		if nr == nil {
			continue
		}
		put(int64(id))
		put(int64(len(nr.Segments)))
		for _, s := range nr.Segments {
			put(int64(s.Metal))
			put(s.A.X)
			put(s.A.Y)
			put(s.B.X)
			put(s.B.Y)
		}
	}
	return routeGolden{
		segHash:  h.Sum64(),
		totalWL:  res.TotalWL,
		overflow: math.Float64bits(res.Overflow),
		victims:  res.Victims,
	}
}

// TestRouteGolden routes the benchmark placements and requires the
// recorded segments, wirelength, overflow and victims.
func TestRouteGolden(t *testing.T) {
	designs := []string{"PRESENT", "openMSP430_1", "openMSP430_2"}
	if testing.Short() {
		designs = designs[:1]
	}
	for _, name := range designs {
		t.Run(name, func(t *testing.T) {
			d, err := Build(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := route.Route(d.Layout, route.Options{Seed: d.Spec.Seed})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := goldenOf(res), routeGoldens[name]; got != want {
				t.Errorf("got {segHash: %#x, totalWL: %d, overflow: %#x, victims: %d}, want %+v",
					got.segHash, got.totalWL, got.overflow, got.victims, want)
			}
		})
	}
}

// TestGeometryOrderMatchesStableHPWL checks BuildGeometry's routing order
// against its definition — the routable nets stably sorted by descending
// Layout.NetHPWL — on the benchmark designs and a small SoC.
func TestGeometryOrderMatchesStableHPWL(t *testing.T) {
	layouts := map[string]*layout.Layout{"soc_test": smallSoC(t).Layout}
	for _, s := range Specs {
		if testing.Short() && s.Name != "PRESENT" {
			continue
		}
		d, err := Build(s.Name)
		if err != nil {
			t.Fatal(err)
		}
		layouts[s.Name] = d.Layout
	}
	for name, l := range layouts {
		geo := route.BuildGeometry(l)
		want := make([]int32, len(geo.NetIDs))
		hpwl := make([]int64, len(geo.NetIDs))
		for i, id := range geo.NetIDs {
			want[i] = int32(i)
			hpwl[i] = l.NetHPWL(l.Netlist.Nets[id])
		}
		sort.SliceStable(want, func(a, b int) bool { return hpwl[want[a]] > hpwl[want[b]] })
		if len(geo.Order) != len(want) {
			t.Fatalf("%s: %d ordered nets, want %d", name, len(geo.Order), len(want))
		}
		for i := range want {
			if geo.Order[i] != want[i] {
				t.Fatalf("%s: Order[%d] = %d, want %d", name, i, geo.Order[i], want[i])
			}
		}
	}
}
