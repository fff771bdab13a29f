package benchdesigns

import (
	"strings"
	"testing"

	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/route"
	"gdsiiguard/internal/sta"
)

// socDeltaSpec is a scaled-down stamped SoC: small enough to route in a
// test, large enough that one tile is a strict minority of the die, so the
// cone-locality assertion below is meaningful.
func socDeltaSpec() SoCSpec {
	return SoCSpec{
		// MacroEvery 4 puts macros at raster 3 and 7, keeping the mid-die
		// tile t01_01 (raster 4) a perturbable logic tile.
		Name: "SoC_delta_t", TilesX: 3, TilesY: 3, ClockDomains: 2, MacroEvery: 4,
		ChannelRows: 4, ChannelSites: 40,
		Tile: Spec{Name: "soc_tile", StateBits: 64, KeyBits: 64, Depth: 3, Width: 40,
			Util: 0.25, TimingMargin: 1.10, Activity: 0.18, Seed: 91},
	}
}

// socPerturbTile relocates up to n movable, non-clock-attached cells of one
// mid-die tile to nearby free sites — the same tile-local ECO shape the SoC
// bench applies — and returns the dirty-net mask.
func socPerturbTile(t *testing.T, d *SoCDesign, n int) []bool {
	t.Helper()
	l := d.Layout
	prefix := "t01_01/"
	dirty := make([]bool, len(l.Netlist.Nets))
	moved := 0
	for _, in := range l.Netlist.Insts {
		if moved >= n {
			break
		}
		if in.Fixed || !strings.HasPrefix(in.Name, prefix) {
			continue
		}
		wide := false
		for _, c := range in.Conns {
			if c.Net.NumTerms() > 64 {
				wide = true
				break
			}
		}
		if wide {
			continue
		}
		from := l.PlacementOf(in)
		if !from.Placed {
			continue
		}
		w := in.Master.WidthSites
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
		t.Fatal("perturbation moved nothing")
	}
	return dirty
}

// TestSoCTileDeltaMatchesFull is the SoC-shaped end-to-end check of the
// incremental path: perturb one tile of a stamped multi-tile design, warm
// re-route against the clean baseline donor, then verify that delta STA over
// the warm route's change mask reproduces the full whole-graph analysis
// exactly — same TNS, WNS, and per-instance slacks — while re-evaluating
// only a minority of the design's instances.
func TestSoCTileDeltaMatchesFull(t *testing.T) {
	d, err := socDeltaSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	l := d.Layout
	ropt := route.Options{Seed: 1}
	routes, err := route.Route(l, ropt)
	if err != nil {
		t.Fatal(err)
	}
	if routes.Victims != 0 {
		t.Fatalf("baseline SoC route has %d victims; warm start requires a clean donor", routes.Victims)
	}
	opt := sta.Options{Constraints: d.Cons, Routes: routes}
	donor, err := sta.Analyze(l, opt)
	if err != nil {
		t.Fatal(err)
	}

	dirty := socPerturbTile(t, d, 24)
	wres, wst, err := route.Warm(l, ropt, route.BuildGeometry(l), routes, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if wres == nil {
		t.Fatalf("warm route declined (%s)", wst.Decline)
	}

	opt.Routes = wres
	full, err := sta.AnalyzeWithGraph(l, opt, donor.Graph())
	if err != nil {
		t.Fatal(err)
	}
	delta, ds, err := sta.AnalyzeDelta(l, opt, donor, wst.ChangedNets)
	if err != nil {
		t.Fatal(err)
	}
	if delta == nil {
		t.Fatal("delta STA declined; baseline donor should be compatible")
	}

	if delta.TNS != full.TNS || delta.WNS != full.WNS {
		t.Errorf("delta TNS/WNS %.6f/%.6f != full %.6f/%.6f",
			delta.TNS, delta.WNS, full.TNS, full.WNS)
	}
	var funcInsts []*netlist.Instance = l.Netlist.FunctionalInsts()
	for _, in := range funcInsts {
		if got, want := delta.InstSlack(in), full.InstSlack(in); got != want {
			t.Fatalf("inst %s slack %.6f != full %.6f", in.Name, got, want)
		}
	}
	// Locality: the forward cone must stay a minority of the design — the
	// whole point of the delta path at SoC scale.
	if ds.ConeInsts*2 >= len(funcInsts) {
		t.Errorf("cone covered %d of %d functional instances: tile perturbation did not stay local",
			ds.ConeInsts, len(funcInsts))
	}
	t.Logf("SoC tile delta: %d cells, changed=%d cone=%d/%d insts replay=%d reroute=%d",
		d.Cells, ds.ChangedNets, ds.ConeInsts, len(funcInsts), wst.Replayed, wst.Rerouted)
}
