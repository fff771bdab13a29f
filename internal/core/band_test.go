package core

import (
	"fmt"
	"math/rand"
	"testing"

	"gdsiiguard/internal/benchdesigns"
	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/opencell45"
)

// rowsSource adapts an in-memory run table to a band row source.
func rowsSource(rows [][]freeRun) bandRowSource {
	return func(_ *bandLocal, r int, buf []freeRun) []freeRun {
		return append(buf, rows[r]...)
	}
}

// seqMass is the reference: one sequential below-index over all rows.
func seqMass(rows [][]freeRun, threshER int) int {
	var ix belowIndex
	ix.reset()
	for _, row := range rows {
		ix.extend(append(ix.nextTopBuf(), row...))
	}
	return ix.mass(threshER)
}

// TestBandMassMatchesSequential is the property test of the band-parallel
// operator stage: for randomized run layouts, the banded build merged at
// the seams must yield exactly the sequential mass, for any worker count.
func TestBandMassMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		width := 40 + rng.Intn(200)
		nRows := bandParallelMinRows + rng.Intn(300)
		rows := randomRows(rng, nRows, width)
		for _, w := range []int{2, 3, 4, 7} {
			var bs bandScratch
			for _, thresh := range []int{1, 5, 20, 50, 200} {
				want := seqMass(rows, thresh)
				got := bs.mass(nRows, thresh, w, rowsSource(rows))
				if got != want {
					t.Fatalf("seed %d rows %d width %d workers %d thresh %d: band mass = %d, want %d",
						seed, nRows, width, w, thresh, got, want)
				}
			}
		}
	}
}

// TestBandMassScratchReuse: the same scratch must stay correct across
// layouts of different shapes (buffer reuse is the common failure mode).
func TestBandMassScratchReuse(t *testing.T) {
	var bs bandScratch
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		nRows := bandParallelMinRows + rng.Intn(200)
		rows := randomRows(rng, nRows, 30+rng.Intn(150))
		w := 2 + rng.Intn(6)
		want := seqMass(rows, 10)
		if got := bs.mass(nRows, 10, w, rowsSource(rows)); got != want {
			t.Fatalf("trial %d: band mass = %d, want %d", trial, got, want)
		}
	}
}

func TestResolveBandWorkers(t *testing.T) {
	t.Cleanup(func() { SetOperatorBandWorkers(0) })
	SetOperatorBandWorkers(8)
	if got := resolveBandWorkers(bandParallelMinRows - 1); got != 1 {
		t.Errorf("small layout: workers = %d, want 1", got)
	}
	if got := resolveBandWorkers(1024); got != 8 {
		t.Errorf("large layout: workers = %d, want 8", got)
	}
	// Thin-band clamp: 128 rows can hold at most 4 bands of ≥32 rows.
	if got := resolveBandWorkers(bandParallelMinRows); got != 4 {
		t.Errorf("clamped: workers = %d, want 4", got)
	}
	SetOperatorBandWorkers(1)
	if got := resolveBandWorkers(1024); got != 1 {
		t.Errorf("disabled: workers = %d, want 1", got)
	}
}

// randomTallLayout builds a tall layout (above the band threshold) with
// randomly scattered unconnected cells — CellShift only consumes occupancy.
func randomTallLayout(t *testing.T, rows, sites, cells int, seed int64) *layout.Layout {
	t.Helper()
	lib := opencell45.MustLoad()
	nl := netlist.New("band_t", lib)
	l, err := layout.New(nl, rows, sites)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < cells; i++ {
		in, err := nl.AddInstance(fmt.Sprintf("x%d", i), "INV_X1")
		if err != nil {
			t.Fatal(err)
		}
		for {
			r, s := rng.Intn(rows), rng.Intn(sites)
			if l.CanPlace(in, r, s) {
				if err := l.Place(in, r, s); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
	}
	return l
}

// TestCellShiftBandIdentical runs the full operator on a tall layout with
// the sequential and band-parallel mass paths and requires identical
// trajectories: same mass checkpoints, same shift counts, same final
// placement of every cell.
func TestCellShiftBandIdentical(t *testing.T) {
	t.Cleanup(func() { SetOperatorBandWorkers(0) })
	const threshER = 20
	base := randomTallLayout(t, 160, 50, 2200, 7) // INV_X1 is 2 sites: ~55% util

	run := func(workers int) (*layout.Layout, CellShiftResult, []int) {
		SetOperatorBandWorkers(workers)
		l := base.Clone()
		var trace []int
		var e shiftEngine
		e.massTrace = &trace
		res := e.run(l, threshER, true)
		return l, res, trace
	}
	seqL, seqRes, seqTrace := run(1)
	parL, parRes, parTrace := run(4)

	if seqRes != parRes {
		t.Errorf("results differ: seq %+v, par %+v", seqRes, parRes)
	}
	if len(seqTrace) != len(parTrace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(seqTrace), len(parTrace))
	}
	for i := range seqTrace {
		if seqTrace[i] != parTrace[i] {
			t.Fatalf("mass checkpoint %d: seq %d, par %d", i, seqTrace[i], parTrace[i])
		}
	}
	for _, in := range base.Netlist.Insts {
		sp := seqL.PlacementOf(seqL.Netlist.Insts[in.ID])
		pp := parL.PlacementOf(parL.Netlist.Insts[in.ID])
		if sp != pp {
			t.Fatalf("placement of %s differs: seq %+v, par %+v", in.Name, sp, pp)
		}
	}
}

// TestExploitableFreeMass: the exported entry must give the same mass with
// the band-parallel path forced on as with the sequential path, on a random
// tall layout and on a stamped SoC (the SoC_100k tile at 3×3 tiles with
// macros, 147 rows). Each input must resolve to more than one band worker,
// or the test would compare the sequential path with itself.
func TestExploitableFreeMass(t *testing.T) {
	t.Cleanup(func() { SetOperatorBandWorkers(0) })
	spec, err := benchdesigns.SoCSpecOf("SoC_100k")
	if err != nil {
		t.Fatal(err)
	}
	spec.Name = "SoC_3x3"
	spec.TilesX, spec.TilesY = 3, 3
	spec.MacroEvery = 3
	soc, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name            string
		l               *layout.Layout
		workers, thresh int
	}{
		{"random_tall", randomTallLayout(t, 192, 40, 2000, 11), 6, 12},
		{spec.Name, soc.Layout, 4, 20},
	}
	for _, c := range cases {
		SetOperatorBandWorkers(1)
		seq := ExploitableFreeMass(c.l, c.thresh)
		SetOperatorBandWorkers(c.workers)
		if w := ResolvedOperatorBandWorkers(c.l.NumRows); w < 2 {
			t.Fatalf("%s: %d rows resolve to %d band worker(s); the band path would not run", c.name, c.l.NumRows, w)
		}
		par := ExploitableFreeMass(c.l, c.thresh)
		if seq != par {
			t.Errorf("%s: mass differs: seq %d, par %d", c.name, seq, par)
		}
		if seq == 0 {
			t.Errorf("%s: mass = 0 on a half-empty layout", c.name)
		}
	}
}
