package benchdesigns

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"gdsiiguard/internal/core"
	"gdsiiguard/internal/gdsii"
)

// smallSoC is a reduced stamped design for structural tests: 3×3 tiles of a
// small tile, two clock domains, one macro position.
func smallSoC(t *testing.T) *SoCDesign {
	t.Helper()
	spec := SoCSpec{
		Name: "soc_test", TilesX: 3, TilesY: 3, ClockDomains: 2, MacroEvery: 4,
		Tile: Spec{
			Name: "tiny_tile", StateBits: 32, KeyBits: 16, Depth: 3, Width: 24,
			Util: 0.55, TimingMargin: 1.2, Activity: 0.2, Seed: 42,
		},
	}
	d, err := spec.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return d
}

func TestSoCStructure(t *testing.T) {
	d := smallSoC(t)
	nl := d.Layout.Netlist

	// Macro at raster index 3 (position (1,0)): blockage plus fixed fill.
	if len(d.Layout.Blockages) != 2 { // indices 3 and 7
		t.Errorf("blockages = %d, want 2", len(d.Layout.Blockages))
	}
	if b := d.Layout.Blockages[0]; b.MaxDensity != 0 {
		t.Errorf("macro blockage density = %g, want 0", b.MaxDensity)
	}
	fill := nl.Instance("t01_00/fill_0")
	if fill == nil || !fill.Fixed {
		t.Error("macro filler missing or not fixed")
	}
	if !d.Layout.PlacementOf(fill).Placed {
		t.Error("macro filler unplaced")
	}

	// Clock domains: both ports exist and both nets have sinks.
	for _, c := range []string{"clk0", "clk1"} {
		n := nl.Net(c)
		if n == nil || !n.IsClock || len(n.Sinks) == 0 {
			t.Errorf("clock net %s missing or unused", c)
		}
	}
	if len(d.Cons.Clocks) != 2 {
		t.Fatalf("clocks = %d, want 2", len(d.Cons.Clocks))
	}
	if d.Cons.Clocks[1].PeriodPS <= d.Cons.Clocks[0].PeriodPS {
		t.Error("secondary domain not detuned")
	}

	// Stitching: tile (0,1) reads tile (0,0)'s outputs, so some t00_00 net
	// must sink into a t00_01 instance.
	stitched := false
	for _, n := range nl.Nets {
		if !strings.HasPrefix(n.Name, "t00_00/") {
			continue
		}
		for _, sk := range n.Sinks {
			if sk.Inst != nil && strings.HasPrefix(sk.Inst.Name, "t00_01/") {
				stitched = true
			}
		}
	}
	if !stitched {
		t.Error("tile (0,1) not stitched to tile (0,0)")
	}

	// Assets replicate per logic tile with the tile prefix.
	if len(d.Assets) == 0 {
		t.Fatal("no assets")
	}
	seenTiles := map[string]bool{}
	for _, a := range d.Assets {
		in := nl.Instance(a)
		if in == nil || !in.SecurityCritical {
			t.Fatalf("asset %s missing or not critical", a)
		}
		seenTiles[a[:strings.Index(a, "/")]] = true
	}
	if len(seenTiles) != 7 { // 9 tiles − 2 macros
		t.Errorf("asset tiles = %d, want 7", len(seenTiles))
	}

	if d.Cells != len(nl.Insts) {
		t.Errorf("Cells = %d, want %d", d.Cells, len(nl.Insts))
	}
	if got := d.Layout.NumRows; got != 3*d.TileRows {
		t.Errorf("NumRows = %d, want %d", got, 3*d.TileRows)
	}
}

func TestSoCExportRoundTrip(t *testing.T) {
	d := smallSoC(t)
	path := filepath.Join(t.TempDir(), "soc.gds")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	if err := gdsii.StreamLayoutTiles(w, d.Layout, nil, d.Grid()); err != nil {
		t.Fatalf("StreamLayoutTiles: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	stats, name, err := gdsii.StreamStats(bufio.NewReader(rf))
	if err != nil {
		t.Fatalf("StreamStats: %v", err)
	}
	if name != "soc_test" {
		t.Errorf("library name = %q", name)
	}
	placed := 0
	for _, in := range d.Layout.Netlist.Insts {
		if d.Layout.PlacementOf(in).Placed {
			placed++
		}
	}
	// One SRef per placed cell plus one per non-empty tile (9 tiles, all
	// non-empty: macros hold fillers).
	if want := placed + 9; stats.SRefs != want {
		t.Errorf("SRefs = %d, want %d", stats.SRefs, want)
	}
	if want := len(d.Assets); stats.Texts != want {
		t.Errorf("Texts = %d, want %d", stats.Texts, want)
	}
}

// retainedHeap returns the live heap after a full collection.
func retainedHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSoCStreamingMemoryBound is the SoC-scale acceptance test: a ≥10⁵-cell
// generated design exports and re-imports through the streaming codec with
// peak retained memory bounded by O(record), while the whole-library Read
// path — the only path the seed codec offered — retains the full library.
// The old path fails the streaming bound by more than an order of
// magnitude, which is exactly the contrast asserted here.
func TestSoCStreamingMemoryBound(t *testing.T) {
	if testing.Short() {
		t.Skip("SoC-scale design excluded from -short")
	}
	d, err := BuildSoC("SoC_100k")
	if err != nil {
		t.Fatalf("BuildSoC: %v", err)
	}
	if d.Cells < 100_000 {
		t.Fatalf("SoC_100k has %d cells, want ≥ 100000", d.Cells)
	}
	path := filepath.Join(t.TempDir(), "soc100k.gds")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	if err := gdsii.StreamLayoutTiles(w, d.Layout, nil, d.Grid()); err != nil {
		t.Fatalf("export: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Streaming import: count elements, retain nothing.
	before := retainedHeap()
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	elements := 0
	err = gdsii.ReadStream(bufio.NewReader(rf), gdsii.StreamHandler{
		OnElement: func(gdsii.Element) error { elements++; return nil },
	})
	rf.Close()
	if err != nil {
		t.Fatalf("streaming import: %v", err)
	}
	streamRetained := int64(retainedHeap()) - int64(before)
	if elements < d.Cells {
		t.Fatalf("streamed %d elements, want ≥ %d", elements, d.Cells)
	}

	// Whole-library import of the same file retains everything.
	before = retainedHeap()
	rf, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := gdsii.Read(bufio.NewReader(rf))
	rf.Close()
	if err != nil {
		t.Fatalf("whole-library import: %v", err)
	}
	wholeRetained := int64(retainedHeap()) - int64(before)
	runtime.KeepAlive(lib)

	const mb = 1 << 20
	t.Logf("cells=%d elements=%d streamRetained=%.1fMB wholeRetained=%.1fMB",
		d.Cells, elements, float64(streamRetained)/mb, float64(wholeRetained)/mb)
	if streamRetained > 4*mb {
		t.Errorf("streaming import retained %.1fMB, want ≤ 4MB (O(record) bound)",
			float64(streamRetained)/mb)
	}
	if wholeRetained < 8*mb {
		t.Errorf("whole-library import retained only %.1fMB — memory contrast lost",
			float64(wholeRetained)/mb)
	}
	if wholeRetained < 4*streamRetained+4*mb {
		t.Errorf("whole-library retained %.1fMB vs streaming %.1fMB: bound does not discriminate",
			float64(wholeRetained)/mb, float64(streamRetained)/mb)
	}
}

// TestSoCValidatesAndTopoOrders guards the stitched netlist against
// structural regressions: Validate already ran inside Build; topological
// order must cover all functional cells (no combinational loops through
// the stitching).
func TestSoCValidatesAndTopoOrders(t *testing.T) {
	d := smallSoC(t)
	order, err := d.Layout.Netlist.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	funcCount := len(d.Layout.Netlist.FunctionalInsts())
	if len(order) != funcCount {
		t.Errorf("topo order covers %d cells, want %d", len(order), funcCount)
	}
}

// TestSoCBuildReproducible builds the same SoC spec twice and requires the
// same net numbering and the same baseline timing: generation must not
// depend on map iteration order.
func TestSoCBuildReproducible(t *testing.T) {
	var names [2][]string
	var tns [2]float64
	for i := range names {
		d := smallSoC(t)
		for _, n := range d.Layout.Netlist.Nets {
			names[i] = append(names[i], n.Name)
		}
		base, err := core.EvalBaseline(d.Layout, core.FlowConfig{
			Constraints: d.Cons, Activity: d.Spec.Tile.Activity, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		tns[i] = base.Metrics.TNS
	}
	if len(names[0]) != len(names[1]) {
		t.Fatalf("net counts differ: %d vs %d", len(names[0]), len(names[1]))
	}
	for id := range names[0] {
		if names[0][id] != names[1][id] {
			t.Fatalf("net %d is %q in one build and %q in the other", id, names[0][id], names[1][id])
		}
	}
	if tns[0] != tns[1] {
		t.Errorf("baseline TNS differs between builds: %g vs %g", tns[0], tns[1])
	}
}
