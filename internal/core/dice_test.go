package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/netlist"
	"gdsiiguard/internal/opencell45"
)

// openLayout builds a layout with one big free region and a few movable
// cells clustered at the left edge.
func openLayout(t *testing.T, rows, sites, nCells int) *layout.Layout {
	t.Helper()
	lib := opencell45.MustLoad()
	nl := netlist.New("dice", lib)
	clk, _ := nl.AddNet("clk")
	clk.IsClock = true
	p, _ := nl.AddPort("clk", netlist.In)
	_ = nl.ConnectPort(p, clk)
	l, err := layout.New(nl, rows, sites)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nCells; i++ {
		inv, err := nl.AddInstance(names(i), "INV_X1")
		if err != nil {
			t.Fatal(err)
		}
		a, _ := nl.AddNet(names(i) + "_a")
		pa, _ := nl.AddPort(names(i)+"_pa", netlist.In)
		_ = nl.ConnectPort(pa, a)
		z, _ := nl.AddNet(names(i) + "_z")
		pz, _ := nl.AddPort(names(i)+"_pz", netlist.Out)
		_ = nl.ConnectPort(pz, z)
		_ = nl.Connect(inv, "A", a)
		_ = nl.Connect(inv, "ZN", z)
		if err := l.Place(inv, i%rows, (i/rows)*3); err != nil {
			t.Fatal(err)
		}
	}
	l.SpreadPorts()
	return l
}

func names(i int) string { return "c" + string(rune('a'+i%26)) + string(rune('0'+i/26)) }

// fullComponents is the test-side convenience wrapper over compBuf.build.
func fullComponents(l *layout.Layout) ([]fullRun, []int) {
	var c compBuf
	var rc diceRowCache
	rc.reset(l.NumRows)
	c.build(l, &rc)
	return c.runs, c.weights
}

// diceResidual / exploitableMass on a throwaway engine.
func diceResidual(l *layout.Layout, threshER, maxMoves int) int {
	var e shiftEngine
	return e.diceResidual(l, threshER, maxMoves)
}

func exploitableMass(l *layout.Layout, threshER int) int {
	var e shiftEngine
	return e.exploitableMass(l, threshER)
}

func TestFullComponentsLabeling(t *testing.T) {
	l := openLayout(t, 3, 40, 3) // cells at (0,0),(1,0),(2,0), rest free
	runs, weights := fullComponents(l)
	if len(runs) != 3 {
		t.Fatalf("runs = %d, want 3", len(runs))
	}
	// All three right-side runs are vertically connected: one component.
	comp := runs[0].comp
	total := 0
	for _, r := range runs {
		if r.comp != comp {
			t.Errorf("run %+v in different component", r)
		}
		total += r.length
	}
	if weights[comp] != total {
		t.Errorf("component weight %d, want %d", weights[comp], total)
	}
	if total != 3*40-3*2 {
		t.Errorf("free sites = %d", total)
	}
}

func TestExploitablePotential(t *testing.T) {
	weights := []int{25, 5, 30, 0}
	mass, phi := exploitablePotential(weights, 20)
	if mass != 55 {
		t.Errorf("mass = %d, want 55", mass)
	}
	if phi != 25*25+30*30 {
		t.Errorf("phi = %d", phi)
	}
	mass, phi = exploitablePotential([]int{5, 19}, 20)
	if mass != 0 || phi != 0 {
		t.Errorf("sub-threshold mass/phi = %d/%d", mass, phi)
	}
}

func TestDiceResidualReducesMass(t *testing.T) {
	l := openLayout(t, 4, 60, 8)
	_, w0 := fullComponents(l)
	m0, _ := exploitablePotential(w0, 20)
	if m0 == 0 {
		t.Skip("no exploitable mass to dice")
	}
	moves := diceResidual(l, 20, 50)
	_, w1 := fullComponents(l)
	m1, _ := exploitablePotential(w1, 20)
	if moves == 0 {
		t.Fatal("no dice moves")
	}
	if m1 >= m0 {
		t.Errorf("mass did not drop: %d -> %d", m0, m1)
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("layout invalid after dicing: %v", err)
	}
}

func TestDiceRespectsBudgetAndFixed(t *testing.T) {
	l := openLayout(t, 4, 60, 8)
	for _, in := range l.Netlist.Insts {
		in.Fixed = true
	}
	if moves := diceResidual(l, 20, 50); moves != 0 {
		t.Errorf("dice moved %d fixed cells", moves)
	}
	for _, in := range l.Netlist.Insts {
		in.Fixed = false
	}
	if moves := diceResidual(l, 20, 2); moves > 2 {
		t.Errorf("dice exceeded budget: %d", moves)
	}
}

func TestSplitPosition(t *testing.T) {
	run := &fullRun{row: 0, start: 10, length: 50}
	at := splitPosition(run, 3, 20)
	if at != 10+19 {
		t.Errorf("at = %d, want 29", at)
	}
	// Donor wider than the run: refused.
	if at := splitPosition(&fullRun{start: 0, length: 2}, 3, 20); at != -1 {
		t.Errorf("wide donor placed at %d", at)
	}
	// Short run: centered.
	at = splitPosition(&fullRun{start: 0, length: 10}, 2, 20)
	if at < 0 || at+2 > 10 {
		t.Errorf("centered at = %d", at)
	}
}

func TestExploitableMassMatchesComponents(t *testing.T) {
	l := openLayout(t, 3, 40, 3)
	_, weights := fullComponents(l)
	mass, _ := exploitablePotential(weights, 20)
	if got := exploitableMass(l, 20); got != mass {
		t.Errorf("exploitableMass = %d, fullComponents mass = %d", got, mass)
	}
}

func TestShrinkAndSpill(t *testing.T) {
	// v=[0,5), cell width 2 at sites 5-6, next run [7,10).
	cur := []freeRun{{0, 5}, {7, 3}}
	out := shrinkAndSpill(cur, 0, 2)
	// v loses a site; spill at 6 merges with [7,3) -> [6,4).
	if len(out) != 2 || out[0] != (freeRun{0, 4}) || out[1] != (freeRun{6, 4}) {
		t.Errorf("out = %+v", out)
	}
	// No adjacent next run: a new 1-site run appears.
	cur = []freeRun{{0, 5}, {20, 3}}
	out = shrinkAndSpill(cur, 0, 2)
	if len(out) != 3 || out[1] != (freeRun{6, 1}) {
		t.Errorf("out = %+v", out)
	}
	// Vertex vanishes; its spill (site 2) merges with the adjacent run
	// [3,5) into [2,5).
	cur = []freeRun{{0, 1}, {3, 2}}
	out = shrinkAndSpill(cur, 0, 2)
	if len(out) != 1 || out[0] != (freeRun{2, 3}) {
		t.Errorf("vanish out = %+v", out)
	}
}

// TestProbePhiMatchesFullRelabel is the property test of the probe
// scoring: on randomized layouts, moving a random donor to a random
// position inside a random free run and scoring it from the touched
// components must give the potential of a whole-layout relabel, at every
// threshold. A quarter of the probes are kept, so later probes run on
// labelings the earlier ones produced.
func TestProbePhiMatchesFullRelabel(t *testing.T) {
	cases := []struct {
		chains, stages int
		util           float64
	}{
		{6, 5, 0.45},
		{8, 7, 0.60},
		{10, 6, 0.72},
		{4, 12, 0.55},
	}
	for seed := int64(1); seed <= 8; seed++ {
		c := cases[int(seed)%len(cases)]
		l := buildDesign(t, c.chains, c.stages, c.util, seed)
		rng := rand.New(rand.NewSource(seed))
		var e shiftEngine
		d := &e.dice
		d.cache.reset(l.NumRows)
		d.relabel(l)
		probes, sameRow := 0, 0
		for step := 0; step < 1000; step++ {
			target := &d.a.runs[rng.Intn(len(d.a.runs))]
			row := rng.Intn(l.NumRows)
			if rng.Intn(2) == 0 { // bias toward split donors
				row = target.row + rng.Intn(3) - 1
				if row < 0 || row >= l.NumRows {
					continue
				}
			}
			donors := d.rowDonors(l, row)
			if len(donors) == 0 {
				continue
			}
			dn := &donors[rng.Intn(len(donors))]
			w := dn.in.Master.WidthSites
			if w >= target.length {
				continue
			}
			at := target.start + rng.Intn(target.length-w+1)
			if err := l.Place(dn.in, target.row, at); err != nil {
				t.Fatal(err)
			}
			d.cache.invalidate(dn.row)
			d.cache.invalidate(target.row)
			var full compBuf
			var rc diceRowCache
			rc.reset(l.NumRows)
			full.build(l, &rc)
			for _, thresh := range []int{3, 10, 20, 40} {
				_, phi := exploitablePotential(d.a.weights, thresh)
				_, want := exploitablePotential(full.weights, thresh)
				if got := d.probePhi(l, thresh, phi, target, dn); got != want {
					t.Fatalf("seed %d step %d: %s (%d,%d) -> (%d,%d) thresh %d: probe Φ = %d, relabel Φ = %d",
						seed, step, dn.in.Name, dn.row, dn.site, target.row, at, thresh, got, want)
				}
			}
			probes++
			if dn.row == target.row {
				sameRow++
			}
			if rng.Intn(4) == 0 {
				d.relabel(l)
				continue
			}
			if err := l.Place(dn.in, dn.row, dn.site); err != nil {
				t.Fatal(err)
			}
			d.cache.invalidate(dn.row)
			d.cache.invalidate(target.row)
		}
		if probes < 100 || sameRow == 0 {
			t.Fatalf("seed %d: %d probes, %d within the target row: too few to test", seed, probes, sameRow)
		}
	}
}

// TestDiceRowCachePatchMatchesScan: the row cache patches the free runs
// of the rows a dicing move touches instead of rescanning them, so after
// every probe, kept move and revert each cached row must equal a fresh
// scan. The probes are those of TestProbePhiMatchesFullRelabel; then the
// dicing attempts themselves run on each layout, with the same check after
// every attempt.
func TestDiceRowCachePatchMatchesScan(t *testing.T) {
	cases := []struct {
		chains, stages int
		util           float64
	}{
		{6, 5, 0.45},
		{8, 7, 0.60},
		{10, 6, 0.72},
		{4, 12, 0.55},
	}
	var scan []layout.SiteRun
	totalAttempts := 0
	check := func(l *layout.Layout, rc *diceRowCache, what string) {
		t.Helper()
		for r := 0; r < l.NumRows; r++ {
			if !rc.runsValid[r] {
				t.Fatalf("%s: row %d dropped from the cache", what, r)
			}
			scan = l.AppendFreeRuns(r, scan[:0])
			if !slices.Equal(rc.runs[r], scan) {
				t.Fatalf("%s: row %d cached %v, scan %v", what, r, rc.runs[r], scan)
			}
		}
	}
	for seed := int64(1); seed <= 8; seed++ {
		c := cases[int(seed)%len(cases)]
		l := buildDesign(t, c.chains, c.stages, c.util, seed)
		rng := rand.New(rand.NewSource(seed))
		var e shiftEngine
		d := &e.dice
		d.cache.reset(l.NumRows)
		d.relabel(l)
		probes, sameRow, bothSides := 0, 0, 0
		for step := 0; step < 1000; step++ {
			target := &d.a.runs[rng.Intn(len(d.a.runs))]
			row := rng.Intn(l.NumRows)
			if rng.Intn(2) == 0 { // bias toward split donors
				row = target.row + rng.Intn(3) - 1
				if row < 0 || row >= l.NumRows {
					continue
				}
			}
			donors := d.rowDonors(l, row)
			if len(donors) == 0 {
				continue
			}
			dn := &donors[rng.Intn(len(donors))]
			w := dn.in.Master.WidthSites
			if w >= target.length {
				continue
			}
			at := target.start + rng.Intn(target.length-w+1)
			what := fmt.Sprintf("seed %d step %d: %s (%d,%d) -> (%d,%d)", seed, step, dn.in.Name, dn.row, dn.site, target.row, at)
			if err := d.move(l, dn.in, dn.row, dn.site, target.row, at); err != nil {
				t.Fatal(err)
			}
			check(l, &d.cache, what+" probe")
			probes++
			if dn.row == target.row {
				sameRow++
			}
			if l.Free(dn.row, dn.site-1) && l.Free(dn.row, dn.site+w) {
				bothSides++
			}
			if rng.Intn(4) == 0 { // keep the move
				d.relabel(l)
				check(l, &d.cache, what+" kept")
				continue
			}
			if err := d.move(l, dn.in, target.row, at, dn.row, dn.site); err != nil {
				t.Fatal(err)
			}
			check(l, &d.cache, what+" revert")
		}
		if probes < 100 || sameRow == 0 || bothSides == 0 {
			t.Fatalf("seed %d: %d probes, %d within the target row, %d freeing a cell between two runs: too few to test",
				seed, probes, sameRow, bothSides)
		}

		Preprocess(l)
		d.relabel(l)
		_, phi := exploitablePotential(d.a.weights, 10)
		attempts := 0
		for ; attempts < 200; attempts++ {
			ti, accepted := d.attempt(l, 10, phi)
			if ti < 0 {
				break
			}
			check(l, &d.cache, fmt.Sprintf("seed %d attempt %d (kept %v)", seed, attempts, accepted))
			if accepted {
				d.relabel(l)
				_, phi = exploitablePotential(d.a.weights, 10)
			} else {
				d.skipped[ti] = true
			}
		}
		totalAttempts += attempts
	}
	if totalAttempts < 100 {
		t.Fatalf("%d dicing attempts over all layouts: too few to test", totalAttempts)
	}
}

// diceRig is a mid-size design after the row passes, with a warm dicing
// scratch and an open journal: the dicing stage as its benchmark and its
// allocation test drive it.
type diceRig struct {
	l   *layout.Layout
	e   shiftEngine
	phi int64
}

func newDiceRig(tb testing.TB) *diceRig {
	r := &diceRig{l: buildDesign(tb, 16, 12, 0.5, 5)}
	Preprocess(r.l)
	CellShiftWithOptions(r.l, 20, false)
	r.l.BeginJournal()
	tb.Cleanup(r.l.EndJournal)
	r.e.dice.cache.reset(r.l.NumRows)
	r.relabel()
	return r
}

func (r *diceRig) relabel() {
	r.e.dice.relabel(r.l)
	_, r.phi = exploitablePotential(r.e.dice.a.weights, 20)
}

// attempt makes one dicing attempt, rolls a kept move back and gives the
// target up, so the rig cycles over the targets of one labeling: every
// call after the first cycle repeats work the scratch has already sized
// itself for.
func (r *diceRig) attempt() (probed bool) {
	d := &r.e.dice
	mark := r.l.JournalMark()
	ti, accepted := d.attempt(r.l, 20, r.phi)
	switch {
	case ti < 0:
		r.relabel()
		return false
	case accepted:
		// The rollback restores the layout d.a labels; only the row
		// scans of the kept move are stale.
		r.l.RollbackJournal(mark)
		d.cache.reset(r.l.NumRows)
	}
	d.skipped[ti] = true
	return true
}

// TestDiceAttemptAllocatesNothing: once the dicing scratch is warm, an
// attempt (donor scoring, probes, their scoring and reverts) allocates
// nothing.
func TestDiceAttemptAllocatesNothing(t *testing.T) {
	r := newDiceRig(t)
	if mass, _ := exploitablePotential(r.e.dice.a.weights, 20); mass == 0 {
		t.Fatal("rig has no exploitable mass to dice")
	}
	targets := 0
	for r.attempt() {
		targets++
	}
	if targets == 0 {
		t.Fatal("rig made no dicing attempt")
	}
	for i := 0; i < 2*targets; i++ {
		r.attempt()
	}
	if n := testing.AllocsPerRun(200, func() { r.attempt() }); n != 0 {
		t.Errorf("warm dicing attempt: %v allocs/op, want 0", n)
	}
}

// TestDiceRejectedAttemptLeavesJournal: a rejected probe is rolled back
// through the journal, so under an enclosing journal an attempt that keeps
// no move leaves the journal exactly as long as it found it and the
// placement unchanged, while a kept move stays recorded.
func TestDiceRejectedAttemptLeavesJournal(t *testing.T) {
	placements := func(l *layout.Layout) []layout.Placement {
		out := make([]layout.Placement, len(l.Netlist.Insts))
		for i, in := range l.Netlist.Insts {
			out[i] = l.PlacementOf(in)
		}
		return out
	}
	rejected := 0
	for seed := int64(1); seed <= 4; seed++ {
		l := buildDesign(t, 8, 7, 0.6, seed)
		Preprocess(l)
		l.BeginJournal()
		var e shiftEngine
		d := &e.dice
		d.cache.reset(l.NumRows)
		d.relabel(l)
		_, phi := exploitablePotential(d.a.weights, 10)
		for attempts := 0; attempts < 200; attempts++ {
			n, before := l.JournalLen(), placements(l)
			ti, accepted := d.attempt(l, 10, phi)
			if ti < 0 {
				break
			}
			switch got := l.JournalLen(); {
			case accepted && got == n:
				t.Fatalf("seed %d: kept move on run %d left no journal record", seed, ti)
			case accepted:
				d.relabel(l)
				_, phi = exploitablePotential(d.a.weights, 10)
			case got != n:
				t.Fatalf("seed %d: rejected attempt on run %d: JournalLen %d, want %d", seed, ti, got, n)
			case !slices.Equal(placements(l), before):
				t.Fatalf("seed %d: rejected attempt on run %d moved a cell", seed, ti)
			default:
				rejected++
				d.skipped[ti] = true
			}
		}
		l.EndJournal()
	}
	if rejected == 0 {
		t.Fatal("no rejected attempt to check")
	}
}

// BenchmarkDiceResidual measures the whole dicing stage on the layout the
// row passes leave, rolled back through the journal after each run.
// TestDiceAttemptAllocatesNothing gates its attempts' allocations.
func BenchmarkDiceResidual(b *testing.B) {
	r := newDiceRig(b)
	budget := r.l.FreeSites()/20*2 + 64
	r.e.diceResidual(r.l, 20, budget) // warm the scratch
	r.l.RollbackJournal(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.e.diceResidual(r.l, 20, budget)
		r.l.RollbackJournal(0)
	}
}
