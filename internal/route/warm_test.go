package route

import (
	"math"
	"math/rand"
	"testing"

	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/netlist"
)

// placedLocalMesh places a mesh netlist with strong locality: instances go
// into rows in netlist order (chains are built consecutively), with free
// sites interleaved so cells can relocate nearby. Global placement at low
// utilization scatters connected cells across the die, which makes every
// two-pin connection span most of the routing grid and leaves a warm start
// nothing provably unaffected to replay; real ECO placements keep
// connected cells close, and so does this.
func placedLocalMesh(t testing.TB, chains, stages, numRows, sitesPerRow int) *layout.Layout {
	t.Helper()
	nl := meshNetlist(t, chains, stages)
	l, err := layout.New(nl, numRows, sitesPerRow)
	if err != nil {
		t.Fatal(err)
	}
	// Serpentine fill: odd rows run right-to-left, so the connection
	// across a row boundary stays short instead of spanning the die.
	// site is the next free start (dir > 0) or the exclusive right edge
	// of the free span (dir < 0).
	row, site, dir := 0, 0, 1
	for _, in := range nl.Insts {
		w := in.Master.WidthSites
		if (dir > 0 && site+w > sitesPerRow) || (dir < 0 && site-w < 0) {
			row, dir = row+1, -dir
			if row >= numRows {
				t.Fatal("mesh does not fit the die")
			}
			if dir > 0 {
				site = 0
			} else {
				site = sitesPerRow
			}
		}
		at := site
		if dir < 0 {
			at = site - w
		}
		if err := l.Place(in, row, at); err != nil {
			t.Fatal(err)
		}
		site += dir * (w + 2) // leave free sites for local relocation
	}
	return l
}

// perturb relocates up to n movable instances of l to random free sites
// and returns the dirty-net mask (nets with a terminal on a moved cell).
func perturb(t *testing.T, l *layout.Layout, n int, rng *rand.Rand) []bool {
	t.Helper()
	dirty := make([]bool, len(l.Netlist.Nets))
	moved := 0
	var cands []*netlist.Instance
	for _, in := range l.Netlist.Insts {
		if !in.Fixed && l.PlacementOf(in).Placed {
			cands = append(cands, in)
		}
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	for _, in := range cands {
		if moved >= n {
			break
		}
		w := in.Master.WidthSites
		// Relocate near the current position (ECO operators move cells
		// locally, which is what keeps the change region small).
		from := l.PlacementOf(in)
		row, site := -1, -1
		for dr := -2; dr <= 2 && site < 0; dr++ {
			r := from.Row + dr
			if r < 0 || r >= l.NumRows {
				continue
			}
			for _, run := range l.FreeRuns(r) {
				if run.Len >= w && (r != from.Row || run.Start != from.Site) {
					row, site = r, run.Start
					break
				}
			}
		}
		if site < 0 {
			continue
		}
		l.Unplace(in)
		if err := l.Place(in, row, site); err != nil {
			t.Fatalf("re-place %s: %v", in.Name, err)
		}
		for _, c := range in.Conns {
			dirty[c.Net.ID] = true
		}
		moved++
	}
	if moved == 0 {
		t.Fatal("perturb moved nothing")
	}
	return dirty
}

func sameResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.TotalWL != want.TotalWL {
		t.Errorf("%s: TotalWL %d != %d", label, got.TotalWL, want.TotalWL)
	}
	if got.Victims != want.Victims {
		t.Errorf("%s: Victims %d != %d", label, got.Victims, want.Victims)
	}
	if got.Grid != want.Grid {
		t.Fatalf("%s: grids differ", label)
	}
	if got.Core != want.Core {
		t.Fatalf("%s: core %v != %v", label, got.Core, want.Core)
	}
	if len(got.Cap) != len(want.Cap) {
		t.Fatalf("%s: %d capacity layers, want %d", label, len(got.Cap), len(want.Cap))
	}
	for li := range want.Cap {
		for i := range want.Cap[li] {
			if math.Float64bits(got.Cap[li][i]) != math.Float64bits(want.Cap[li][i]) {
				t.Fatalf("%s: cap[%d][%d] %g != %g", label, li, i, got.Cap[li][i], want.Cap[li][i])
			}
		}
	}
	for id := range want.NetRoutes {
		g, w := got.NetRoutes[id], want.NetRoutes[id]
		if (g == nil) != (w == nil) {
			t.Fatalf("%s: net %d routed-ness differs", label, id)
			continue
		}
		if g == nil {
			continue
		}
		if len(g.Segments) != len(w.Segments) {
			t.Fatalf("%s: net %d has %d segments, want %d", label, id, len(g.Segments), len(w.Segments))
		}
		for i := range w.Segments {
			if g.Segments[i] != w.Segments[i] {
				t.Fatalf("%s: net %d segment %d %+v != %+v", label, id, i, g.Segments[i], w.Segments[i])
			}
		}
		for m := range w.LenByMetal {
			if g.LenByMetal[m] != w.LenByMetal[m] {
				t.Errorf("%s: net %d LenByMetal[%d] %d != %d", label, id, m, g.LenByMetal[m], w.LenByMetal[m])
			}
		}
	}
	for li := range want.Usage {
		for i := range want.Usage[li] {
			if got.Usage[li][i] != want.Usage[li][i] {
				t.Fatalf("%s: usage[%d][%d] %g != %g", label, li, i, got.Usage[li][i], want.Usage[li][i])
			}
		}
	}
}

// TestWarmMatchesColdChain is the warm-start equivalence gate: across a
// chain of placement perturbations, routing warm from the previous clean
// result must be bit-identical — routes, usage grid, wirelength — to
// routing the same layout cold, while actually replaying most nets.
func TestWarmMatchesColdChain(t *testing.T) {
	l := placedLocalMesh(t, 8, 60, 40, 160)
	opt := Options{Seed: 1}
	rng := rand.New(rand.NewSource(5))

	donor, err := Route(l, opt)
	if err != nil {
		t.Fatal(err)
	}
	if donor.Victims != 0 {
		t.Fatal("fixture routes with rip-up victims; warm start needs a clean donor")
	}
	totalReplayed := 0
	for step := 0; step < 4; step++ {
		dirty := perturb(t, l, 3+step, rng)
		geo := BuildGeometry(l)
		cold, err := RouteWithGeometry(l, opt, geo)
		if err != nil {
			t.Fatal(err)
		}
		warm, st, err := Warm(l, opt, geo, donor, dirty)
		if err != nil {
			t.Fatal(err)
		}
		if warm == nil {
			t.Fatalf("step %d: warm start declined; preconditions should hold", step)
		}
		sameResults(t, "step", warm, cold)
		if st.Replayed == 0 {
			t.Errorf("step %d: no nets replayed (stats %+v)", step, st)
		}
		totalReplayed += st.Replayed
		if cold.Victims == 0 {
			donor = warm // chain: the new clean result donates to the next step
		}
	}
	if totalReplayed == 0 {
		t.Fatal("chain never replayed a net")
	}
}

// TestWarmChangedNetsCoverDirty pins the delta-STA change mask to one
// rule, kept in Warm: ChangedNets holds every dirty net, and ChangedCount
// counts exactly its true entries. The dirty set includes a net with no
// route in either run, so no route comparison can put it in the mask.
func TestWarmChangedNetsCoverDirty(t *testing.T) {
	l := placedLocalMesh(t, 8, 60, 40, 160)
	opt := Options{Seed: 1}
	donor, err := Route(l, opt)
	if err != nil {
		t.Fatal(err)
	}
	if donor.Victims != 0 {
		t.Fatal("fixture routes with rip-up victims; warm start needs a clean donor")
	}
	dirty := perturb(t, l, 4, rand.New(rand.NewSource(3)))
	// Mark an unrouted net dirty, as a caller would after moving a cell
	// on it; a conservative mark keeps the warm route exact.
	unrouted := -1
	for id, nr := range donor.NetRoutes {
		if nr == nil && !dirty[id] && l.Netlist.Nets[id].NumTerms() > 0 {
			unrouted = id
			break
		}
	}
	if unrouted < 0 {
		t.Fatal("fixture: every net with a terminal has a route")
	}
	dirty[unrouted] = true

	geo := BuildGeometry(l)
	warm, st, err := Warm(l, opt, geo, donor, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if warm == nil {
		t.Fatalf("warm start declined (%s)", st.Decline)
	}
	if warm.NetRoutes[unrouted] != nil {
		t.Fatalf("fixture: net %d gained a route", unrouted)
	}
	cold, err := RouteWithGeometry(l, opt, geo)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "dirty unrouted net", warm, cold)

	marked := 0
	for id, c := range st.ChangedNets {
		if dirty[id] && !c {
			t.Errorf("dirty net %d (%s) missing from ChangedNets", id, l.Netlist.Nets[id].Name)
		}
		if c {
			marked++
		}
	}
	if marked != st.ChangedCount {
		t.Errorf("ChangedCount = %d, ChangedNets has %d entries", st.ChangedCount, marked)
	}
}

// TestWarmPreconditions checks that Warm declines (returning a nil result,
// signalling cold fallback) whenever the donor cannot prove equivalence:
// NDR mismatch, rip-up victims in the donor, a missing donor, an equal grid
// over a different core, or a different library.
func TestWarmPreconditions(t *testing.T) {
	l := placedMesh(t, 4, 10, 0.5)
	opt := Options{Seed: 1}
	donor, err := Route(l, opt)
	if err != nil {
		t.Fatal(err)
	}
	geo := BuildGeometry(l)
	dirty := make([]bool, len(l.Netlist.Nets))

	if res, _, err := Warm(l, opt, geo, nil, dirty); err != nil || res != nil {
		t.Errorf("nil donor: got (%v, %v), want decline", res, err)
	}

	if donor.Victims == 0 {
		bad := *donor
		bad.Victims = 3
		if res, _, err := Warm(l, opt, geo, &bad, dirty); err != nil || res != nil {
			t.Errorf("victim donor: got (%v, %v), want decline", res, err)
		}
	}

	l.NDR.Scale[0] *= 1.5
	if res, _, err := Warm(l, opt, geo, donor, dirty); err != nil || res != nil {
		t.Errorf("NDR mismatch: got (%v, %v), want decline", res, err)
	}
	l.NDR.Scale[0] /= 1.5

	noLib := *donor
	noLib.lib = nil
	if res, st, err := Warm(l, opt, geo, &noLib, dirty); err != nil || res != nil || st.Decline != "library" {
		t.Errorf("library mismatch: got (%v, %q, %v), want a library decline", res, st.Decline, err)
	}

	// Same netlist, same GCell grid (16 columns of 10 sites), but one
	// site fewer per row: boundary GCells' capacity is clipped to a
	// different core, so the donor's capacity must not be taken over.
	wide, narrow := placedLocalMesh(t, 2, 20, 6, 160), placedLocalMesh(t, 2, 20, 6, 159)
	wideRes, err := Route(wide, opt)
	if err != nil {
		t.Fatal(err)
	}
	if wideRes.Grid != buildGrid(narrow) || wideRes.Core == narrow.CoreRect() {
		t.Fatal("fixture: grids should match and cores differ")
	}
	res, st, err := Warm(narrow, opt, BuildGeometry(narrow), wideRes, make([]bool, len(narrow.Netlist.Nets)))
	if err != nil || res != nil || st.Decline != "core" {
		t.Errorf("core mismatch: got (%v, %q, %v), want a core decline", res, st.Decline, err)
	}

	// With matching state and an all-clean mask, warm must replay all
	// routed nets and reproduce the donor exactly.
	res, st, err = Warm(l, opt, geo, donor, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("identity warm start declined")
	}
	if st.Rerouted != 0 || st.Promoted != 0 {
		t.Errorf("identity warm start rerouted nets: %+v", st)
	}
	sameResults(t, "identity", res, donor)
}

// TestWarmReplayAllocsPerNet pins replay to allocate nothing per net: an
// all-clean warm start replays every routed net, and a mesh with four
// times the nets costs the same number of allocations.
func TestWarmReplayAllocsPerNet(t *testing.T) {
	opt := Options{Seed: 1}
	allocs := func(l *layout.Layout) (float64, int) {
		donor, err := Route(l, opt)
		if err != nil {
			t.Fatal(err)
		}
		geo := BuildGeometry(l)
		dirty := make([]bool, len(l.Netlist.Nets))
		_, st, err := Warm(l, opt, geo, donor, dirty)
		if err != nil || st.Decline != "" || st.Rerouted != 0 {
			t.Fatalf("identity warm start: %+v, %v", st, err)
		}
		return testing.AllocsPerRun(10, func() { Warm(l, opt, geo, donor, dirty) }), st.Replayed
	}
	small, nSmall := allocs(placedLocalMesh(t, 4, 30, 20, 160))
	large, nLarge := allocs(placedLocalMesh(t, 8, 60, 40, 160))
	if nLarge < 2*nSmall {
		t.Fatalf("fixture: %d vs %d replayed nets", nLarge, nSmall)
	}
	if large != small {
		t.Errorf("Warm allocations: %v replaying %d nets, %v replaying %d", small, nSmall, large, nLarge)
	}
}
