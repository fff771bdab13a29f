package route

import (
	"math/rand"
	"sort"
	"testing"
)

// TestSortByHPWLMatchesStable checks both ordering paths — the packed
// integer key and the closure fallback for HPWLs of 2³² DBU or more —
// against the definition: indices stably sorted by descending HPWL.
func TestSortByHPWLMatchesStable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, top := range []int64{1, 50, 1 << 20, 1<<32 - 1, 1 << 32, 1 << 40} {
		hpwl := make([]int64, 500)
		var maxHPWL int64
		for i := range hpwl {
			hpwl[i] = rng.Int63n(top + 1) // duplicates galore at small tops
			maxHPWL = max(maxHPWL, hpwl[i])
		}
		want := make([]int32, len(hpwl))
		key := make([]uint64, len(hpwl))
		for i := range want {
			want[i] = int32(i)
			key[i] = uint64(hpwl[i])
		}
		sort.SliceStable(want, func(a, b int) bool { return hpwl[want[a]] > hpwl[want[b]] })
		got := make([]int32, len(hpwl))
		sortByHPWL(got, key, maxHPWL)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("top %d: order[%d] = %d, want %d", top, i, got[i], want[i])
			}
		}
	}
}

// TestBuildGeometryAllocs pins BuildGeometry to a fixed number of
// allocations whatever the net count, plus at most a bounded few per net
// that takes the Morton path. Every net's Conns owns its capacity.
func TestBuildGeometryAllocs(t *testing.T) {
	small, large := placedMesh(t, 4, 20, 0.6), placedMesh(t, 12, 40, 0.6)
	clocked := placedMesh(t, largeNetTerms+4, 3, 0.6) // its clock net takes the Morton path
	morton := 0
	for _, n := range clocked.Netlist.Nets {
		if n.NumTerms() > largeNetTerms {
			morton++
		}
	}
	if morton == 0 {
		t.Fatal("fixture has no Morton-decomposed net")
	}
	a := testing.AllocsPerRun(10, func() { BuildGeometry(small) })
	b := testing.AllocsPerRun(10, func() { BuildGeometry(large) })
	c := testing.AllocsPerRun(10, func() { BuildGeometry(clocked) })
	if a != b {
		t.Errorf("BuildGeometry allocations: %v on %d nets, %v on %d", a, len(small.Netlist.Nets), b, len(large.Netlist.Nets))
	}
	if c > a+2*float64(morton) {
		t.Errorf("BuildGeometry allocations: %v with %d Morton nets, want at most %v", c, morton, a+2*float64(morton))
	}
	g := BuildGeometry(large)
	for i, conns := range g.Conns {
		if cap(conns) != len(conns) {
			t.Fatalf("net %d: Conns len %d cap %d shares its slab's capacity", g.NetIDs[i], len(conns), cap(conns))
		}
	}
}
