package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gdsiiguard/internal/benchdesigns"
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

// TestProbePhiMatchesFullRelabel is the property test of the reference
// probe scoring: on randomized layouts, moving a random donor to a random
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
		ref := &refProbe{diceScratch: d}
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
				if got := ref.phiAfter(l, thresh, phi, target, dn); got != want {
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

// TestDiceRejectedAttemptLeavesJournal: under an enclosing journal an
// attempt that keeps no move writes no journal record and leaves the
// placement unchanged, while a kept move writes exactly one record, which
// stays.
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
			n, writes, before := l.JournalLen(), l.JournalWrites(), placements(l)
			ti, accepted := d.attempt(l, 10, phi)
			if ti < 0 {
				break
			}
			switch got := l.JournalLen(); {
			case accepted && (got != n+1 || l.JournalWrites() != writes+1):
				t.Fatalf("seed %d: kept move on run %d: JournalLen %d, JournalWrites %d, want %d and %d",
					seed, ti, got, l.JournalWrites(), n+1, writes+1)
			case !accepted && l.JournalWrites() != writes:
				t.Fatalf("seed %d: rejected attempt on run %d wrote %d journal records", seed, ti, l.JournalWrites()-writes)
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

// refProbe is the probe scoring the dicing stage used when it made every
// candidate move before judging it, kept as the reference the scoring from
// the labeling is checked against: probePhi relabels the components a made
// probe touched, with the two changed rows read from the row cache.
type refProbe struct {
	*diceScratch
	// mark[c] == stamp flags component c of a as touched by this probe.
	mark     []uint32
	stamp    uint32
	affected []int
	affRuns  []int
	local    compBuf // the touched runs, relabeled after the probe
}

// phiAfter is probePhi on the current labeling, whose size the marks may
// not have yet.
func (d *refProbe) phiAfter(l *layout.Layout, threshER int, phi int64, target *fullRun, dn *diceDonor) int64 {
	if n := len(d.a.runs); len(d.mark) < n {
		d.mark = append(d.mark, make([]uint32, n-len(d.mark))...)
	}
	return d.probePhi(l, threshER, phi, target, dn)
}

// probePhi returns Φ of the layout after a probe moved donor dn into the
// target run, given Φ of the labeling a (in which the probe is not yet
// made). Only the target's component and the donor's neighbour
// components can change: the vacancy joins exactly the latter, and the
// donor lands inside the former. So Φ' = Φ − Σ old w² + Σ new w² over
// just those components, whose runs are relabeled from a (rows the probe
// did not touch) and the row cache (the two rows it did) — exact in
// int64.
func (d *refProbe) probePhi(l *layout.Layout, threshER int, phi int64, target *fullRun, dn *diceDonor) int64 {
	d.stamp++
	aff := append(d.affected[:0], target.comp)
	d.mark[target.comp] = d.stamp
	for _, c := range d.nbComps[dn.nb0:dn.nb1] {
		if d.mark[c] != d.stamp {
			d.mark[c] = d.stamp
			aff = append(aff, c)
		}
	}
	lo, hi := dn.row, target.row
	if lo > hi {
		lo, hi = hi, lo
	}
	ids := d.affRuns[:0]
	for _, c := range aff {
		if w := d.a.weights[c]; w >= threshER {
			phi -= int64(w) * int64(w)
		}
		for _, i := range d.compRuns[d.compStart[c]:d.compStart[c+1]] {
			if r := d.a.runs[i].row; r != lo && r != hi {
				ids = append(ids, i)
			}
		}
	}
	slices.Sort(ids)
	d.affected, d.affRuns = aff, ids

	// Merge the touched rows' new runs into the row-major run list.
	loc := &d.local
	loc.runs = loc.runs[:0]
	changed := [2]int{lo, hi}
	nChanged := 2
	if lo == hi {
		nChanged = 1
	}
	k := 0
	for _, i := range ids {
		for ; k < nChanged && changed[k] < d.a.runs[i].row; k++ {
			d.appendTouchedRuns(l, changed[k])
		}
		loc.runs = append(loc.runs, d.a.runs[i])
	}
	for ; k < nChanged; k++ {
		d.appendTouchedRuns(l, changed[k])
	}
	loc.label()
	for i, run := range loc.runs {
		if run.comp == i {
			if w := loc.weights[i]; w >= threshER {
				phi += int64(w) * int64(w)
			}
		}
	}
	return phi
}

// appendTouchedRuns appends to d.local the runs of a row the probe changed
// that belong to the touched components: every run except those identical
// to a run of an untouched component in the labeling (the probe leaves
// those as they were; any other run holds changed sites or sites of a
// touched component).
func (d *refProbe) appendTouchedRuns(l *layout.Layout, row int) {
	old := d.a.rowRuns(row)
	j := 0
	for _, nr := range d.cache.rowRuns(l, row) {
		for j < len(old) && old[j].start < nr.Start {
			j++
		}
		if j < len(old) && old[j].start == nr.Start && old[j].length == nr.Len && d.mark[old[j].comp] != d.stamp {
			continue
		}
		d.local.runs = append(d.local.runs, fullRun{row: row, start: nr.Start, length: nr.Len})
	}
}

// madePhi makes the probe of donor dn into [at, at+w) of the target run,
// scores it with the reference and reverts it, patching the row cache both
// ways as the dicing stage does.
func (d *refProbe) madePhi(t *testing.T, l *layout.Layout, threshER int, phi int64, target *fullRun, dn *diceDonor, at int) int64 {
	t.Helper()
	if err := d.move(l, dn.in, dn.row, dn.site, target.row, at); err != nil {
		t.Fatal(err)
	}
	got := d.phiAfter(l, threshER, phi, target, dn)
	if err := d.move(l, dn.in, target.row, at, dn.row, dn.site); err != nil {
		t.Fatal(err)
	}
	return got
}

// scanPickTarget is the per-attempt target scan the dicing stage used
// before it ordered the targets once per labeling.
func scanPickTarget(c *compBuf, threshER int, skipped []bool) int {
	best := -1
	bestW := 0
	for i := range c.runs {
		r := &c.runs[i]
		w := c.weights[r.comp]
		if w < threshER || r.length < 3 || skipped[i] {
			continue
		}
		if best < 0 || w > bestW || (w == bestW && r.length > c.runs[best].length) {
			best, bestW = i, w
		}
	}
	return best
}

// dicingStart returns a benchmark design as the dicing stage first sees
// it in a harden: preprocessed, after the row passes.
func dicingStart(t *testing.T, name string) *layout.Layout {
	t.Helper()
	d, err := benchdesigns.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	l := d.Layout
	Preprocess(l)
	CellShiftWithOptions(l, 20, false)
	return l
}

// forEachDiceAttempt runs the dicing stage on l as diceResidual does, for
// at most maxAttempts attempts, and calls fn before each attempt with the
// labeling's potential and the target the attempt is about to take. The
// scratch fn sees is built, indexed and its row cache current. It returns
// the number of attempts.
func forEachDiceAttempt(t *testing.T, l *layout.Layout, threshER, maxAttempts int, fn func(d *diceScratch, ti int, phi int64)) int {
	t.Helper()
	var e shiftEngine
	d := &e.dice
	d.cache.reset(l.NumRows)
	budget := l.FreeSites()/threshER*2 + 64
	moves, attempts := 0, 0
	var mass int
	var phi int64
	dirty := true
	for ; moves < budget && attempts < 2*budget && attempts < maxAttempts; attempts++ {
		if dirty {
			d.relabel(l)
			mass, phi = exploitablePotential(d.a.weights, threshER)
			dirty = false
		}
		if mass == 0 {
			break
		}
		d.index(l, threshER)
		ti := d.pickTarget()
		if want := scanPickTarget(&d.a, threshER, d.skipped); ti != want {
			t.Fatalf("attempt %d: indexed target %d, scanned target %d", attempts, ti, want)
		}
		if ti < 0 {
			break
		}
		fn(d, ti, phi)
		got, accepted := d.attempt(l, threshER, phi)
		if got != ti {
			t.Fatalf("attempt %d: took target %d, picked %d", attempts, got, ti)
		}
		if accepted {
			moves++
			dirty = true
		} else {
			d.skipped[ti] = true
		}
	}
	return attempts
}

// windowDonors returns every donor of the row window around the target
// narrower than the target run: the candidates of an attempt before the
// best four are taken.
func windowDonors(l *layout.Layout, d *diceScratch, target *fullRun) []*diceDonor {
	var out []*diceDonor
	for r := max(target.row-donorRowWindow, 0); r <= min(target.row+donorRowWindow, l.NumRows-1); r++ {
		donors := d.rowDonors(l, r)
		for i := range donors {
			if donors[i].in.Master.WidthSites < target.length {
				out = append(out, &donors[i])
			}
		}
	}
	return out
}

// TestDiceScoreMatchesProbe: the Φ′ a candidate is scored with from the
// labeling equals the Φ′ of the move made and scored by the reference
// probe, for every candidate. First on the randomized layouts of
// TestProbePhiMatchesFullRelabel, with random targets, donors and cut
// positions, biased toward donors in and next to the target row, donors
// beside the target run and cuts at the run's ends, at four thresholds;
// then on the real attempts of the dicing stage on every benchmark
// design, for every donor of each attempt's window at its split position.
func TestDiceScoreMatchesProbe(t *testing.T) {
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
		ref := &refProbe{diceScratch: d}
		d.cache.reset(l.NumRows)
		d.relabel(l)
		var probes, sameRow, besideRun, nextToCut, atEnd, overCut int
		for step := 0; step < 1000; step++ {
			ti := rng.Intn(len(d.a.runs))
			target := &d.a.runs[ti]
			var dn *diceDonor
			switch rng.Intn(4) {
			case 0: // anywhere
				if donors := d.rowDonors(l, rng.Intn(l.NumRows)); len(donors) > 0 {
					dn = &donors[rng.Intn(len(donors))]
				}
			case 1: // beside the target run in its row
				donors := d.rowDonors(l, target.row)
				for i := range donors {
					if donors[i].site == target.start+target.length || donors[i].site+donors[i].in.Master.WidthSites == target.start {
						dn = &donors[i]
						break
					}
				}
			default: // in or next to the target row
				if row := target.row + rng.Intn(3) - 1; row >= 0 && row < l.NumRows {
					if donors := d.rowDonors(l, row); len(donors) > 0 {
						dn = &donors[rng.Intn(len(donors))]
					}
				}
			}
			if dn == nil {
				continue
			}
			w := dn.in.Master.WidthSites
			if w >= target.length {
				continue
			}
			at := target.start + rng.Intn(target.length-w+1)
			switch rng.Intn(4) {
			case 0:
				at = target.start
			case 1:
				at = target.start + target.length - w
			}
			if err := d.move(l, dn.in, dn.row, dn.site, target.row, at); err != nil {
				t.Fatal(err)
			}
			for _, thresh := range []int{3, 10, 20, 40} {
				_, phi := exploitablePotential(d.a.weights, thresh)
				want := ref.phiAfter(l, thresh, phi, target, dn)
				d.cutTarget(ti, thresh, phi)
				d.cutAt(ti, at, w, thresh)
				if got := d.score(ti, at, dn, thresh); got != want {
					t.Fatalf("seed %d step %d: %s (%d,%d) -> (%d,%d) in run [%d,%d) thresh %d: scored Φ′ = %d, probe Φ′ = %d",
						seed, step, dn.in.Name, dn.row, dn.site, target.row, at, target.start, target.start+target.length, thresh, got, want)
				}
			}
			probes++
			if dn.row == target.row {
				sameRow++
				if dn.site == target.start+target.length || dn.site+w == target.start {
					besideRun++
				}
				if dn.site == at+w || dn.site+w == at {
					nextToCut++
				}
			}
			if at == target.start || at+w == target.start+target.length {
				atEnd++
			}
			if abs(dn.row-target.row) == 1 && dn.site < at+w && at < dn.site+w {
				overCut++
			}
			if rng.Intn(4) == 0 { // keep the move
				d.relabel(l)
				continue
			}
			if err := d.move(l, dn.in, target.row, at, dn.row, dn.site); err != nil {
				t.Fatal(err)
			}
		}
		if probes < 100 || sameRow == 0 || besideRun == 0 || nextToCut == 0 || atEnd == 0 || overCut == 0 {
			t.Fatalf("seed %d: %d probes: %d in the target row, %d beside the target run, %d next to the cut, %d cuts at a run end, %d over the cut: too few to test",
				seed, probes, sameRow, besideRun, nextToCut, atEnd, overCut)
		}
	}

	maxAttempts := 40
	if testing.Short() {
		maxAttempts = 8
	}
	for _, name := range benchdesigns.Names() {
		l := dicingStart(t, name)
		var e shiftEngine
		ref := &refProbe{diceScratch: &e.dice}
		scored := 0
		attempts := forEachDiceAttempt(t, l, 20, maxAttempts, func(d *diceScratch, ti int, phi int64) {
			ref.diceScratch = d
			target := &d.a.runs[ti]
			donors := windowDonors(l, d, target)
			// One labeling of the cut per width, as in an attempt.
			slices.SortFunc(donors, func(a, b *diceDonor) int { return a.in.Master.WidthSites - b.in.Master.WidthSites })
			d.cutTarget(ti, 20, phi)
			for i, dn := range donors {
				w := dn.in.Master.WidthSites
				at := splitPosition(target, w, 20)
				if i == 0 || w != donors[i-1].in.Master.WidthSites {
					d.cutAt(ti, at, w, 20)
				}
				want := ref.madePhi(t, l, 20, phi, target, dn, at)
				if got := d.score(ti, at, dn, 20); got != want {
					t.Fatalf("%s: %s (%d,%d) -> (%d,%d): scored Φ′ = %d, probe Φ′ = %d",
						name, dn.in.Name, dn.row, dn.site, target.row, at, got, want)
				}
				scored++
			}
		})
		if attempts == 0 || scored == 0 {
			t.Fatalf("%s: %d attempts, %d candidates scored: nothing to test", name, attempts, scored)
		}
		t.Logf("%s: %d candidates of %d attempts scored", name, scored, attempts)
	}
}

// TestSafeDonorAlwaysLowersPhi: a safe donor (joint vacancy weight under
// the threshold) moved into any target at its split position lowers Φ, so
// an attempt keeps it unscored. Checked with the reference probe for every
// safe donor of every attempt's window on the benchmark designs, and on
// every safe donor of random exploitable targets of the randomized
// layouts.
func TestSafeDonorAlwaysLowersPhi(t *testing.T) {
	var e shiftEngine
	ref := &refProbe{diceScratch: &e.dice}
	checked := 0
	check := func(l *layout.Layout, d *diceScratch, ti, threshER int, phi int64) {
		target := &d.a.runs[ti]
		for _, dn := range windowDonors(l, d, target) {
			if dn.joint >= threshER {
				continue
			}
			w := dn.in.Master.WidthSites
			at := splitPosition(target, w, threshER)
			if got := ref.madePhi(t, l, threshER, phi, target, dn, at); got >= phi {
				t.Fatalf("safe donor %s (%d,%d) -> (%d,%d): Φ′ = %d, Φ = %d", dn.in.Name, dn.row, dn.site, target.row, at, got, phi)
			}
			checked++
		}
	}
	maxAttempts := 400
	designs := benchdesigns.Names()
	if testing.Short() {
		designs = []string{"PRESENT", "openMSP430_1", "MISTY"}
	}
	for _, name := range designs {
		l := dicingStart(t, name)
		forEachDiceAttempt(t, l, 20, maxAttempts, func(d *diceScratch, ti int, phi int64) {
			ref.diceScratch = d
			check(l, d, ti, 20, phi)
		})
	}
	for seed := int64(1); seed <= 8; seed++ {
		l := buildDesign(t, 8, 7, 0.5, seed)
		Preprocess(l)
		for _, thresh := range []int{10, 20, 40} {
			lc := l.Clone()
			forEachDiceAttempt(t, lc, thresh, 50, func(d *diceScratch, ti int, phi int64) {
				ref.diceScratch = d
				check(lc, d, ti, thresh, phi)
			})
		}
	}
	if checked == 0 {
		t.Fatal("no safe donor to check")
	}
	t.Logf("%d safe donors checked", checked)
}

// TestDonorIndexMatchesScan: in every attempt of the dicing stage the
// donor index's best four equal the best four of the full window scan,
// whether the index served them or fell back to the scan, and the
// indexed target equals the per-attempt target scan (forEachDiceAttempt
// checks the target). The stage runs to completion on PRESENT and
// openMSP430_1 and for a bounded number of attempts elsewhere.
func TestDonorIndexMatchesScan(t *testing.T) {
	served, fallbacks := 0, 0
	compare := func(what string, l *layout.Layout, d *diceScratch, ti, threshER int) {
		target := &d.a.runs[ti]
		scan := d.scanDonors(l, threshER, target, nil)
		got := d.donorCandidates(l, threshER, target)
		if len(got) != len(scan) {
			t.Fatalf("%s: run %d: index gave %d candidates, scan %d", what, ti, len(got), len(scan))
		}
		for i := range got {
			if got[i] != scan[i] {
				t.Fatalf("%s: run %d: candidate %d is %s (tier %d, dist %d), scan's %s (tier %d, dist %d)",
					what, ti, i, got[i].dn.in.Name, got[i].tier, got[i].dist, scan[i].dn.in.Name, scan[i].tier, scan[i].dist)
			}
		}
		if n := len(scan); n == 0 || scan[n-1].tier == 2 {
			fallbacks++
		} else {
			served++
		}
	}
	for _, name := range benchdesigns.Names() {
		maxAttempts := 200
		if name == "PRESENT" || name == "openMSP430_1" {
			maxAttempts = 1 << 30
		} else if testing.Short() {
			continue
		}
		l := dicingStart(t, name)
		forEachDiceAttempt(t, l, 20, maxAttempts, func(d *diceScratch, ti int, phi int64) {
			compare(name, l, d, ti, 20)
		})
	}
	for seed := int64(1); seed <= 8; seed++ {
		l := buildDesign(t, 8, 7, 0.5, seed)
		Preprocess(l)
		for _, thresh := range []int{10, 20, 40} {
			lc := l.Clone()
			forEachDiceAttempt(t, lc, thresh, 1<<30, func(d *diceScratch, ti int, phi int64) {
				compare(fmt.Sprintf("seed %d thresh %d", seed, thresh), lc, d, ti, thresh)
			})
		}
	}
	t.Logf("%d attempts served by the index, %d by the fallback scan", served, fallbacks)
	if served == 0 || fallbacks == 0 {
		t.Fatalf("%d attempts served by the index, %d by the fallback scan: both must occur", served, fallbacks)
	}
}

// TestCellShiftJournalsNoRejectedProbe: the Cell Shift of a PRESENT and an
// openMSP430_1 harden writes one journal record per kept dicing move and
// none for a rejected candidate (when each candidate was probed by making
// its move, they wrote about 14.8k and 22k records, most of them probes
// and their reverts). The test runs the operator's rounds as
// shiftEngine.run does, counting the records each dicing stage writes, and
// checks that it ends where CellShift does.
func TestCellShiftJournalsNoRejectedProbe(t *testing.T) {
	const threshER = 20
	for _, name := range []string{"PRESENT", "openMSP430_1"} {
		d, err := benchdesigns.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		Preprocess(d.Layout)
		want := d.Layout.Clone()
		res := CellShift(want, threshER)

		l := d.Layout.Clone()
		l.BeginJournal()
		var e shiftEngine
		e.moved = sizedFalse(e.moved, len(l.Netlist.Insts))
		var passes CellShiftResult
		diceMoves, diceWrites := 0, 0
		for round := 0; round < 3; round++ {
			before := e.exploitableMass(l, threshER)
			if before == 0 {
				break
			}
			best, fails := before, 0
			for pass := 0; pass < maxCellShiftPasses && fails < 2; pass++ {
				mark := l.JournalMark()
				e.pass(l, threshER, pass%2 == 1, &passes)
				if m := e.exploitableMass(l, threshER); m < best {
					best, fails = m, 0
					continue
				}
				l.RollbackJournal(mark)
				fails++
			}
			writes := l.JournalWrites()
			diceMoves += e.diceResidual(l, threshER, l.FreeSites()/threshER*2+64)
			diceWrites += l.JournalWrites() - writes
			if e.exploitableMass(l, threshER) >= before {
				break
			}
		}
		l.EndJournal()
		if diceMoves != res.DiceMoves {
			t.Fatalf("%s: the rounds kept %d dicing moves, CellShift %d", name, diceMoves, res.DiceMoves)
		}
		for i, in := range want.Netlist.Insts {
			if got := l.PlacementOf(l.Netlist.Insts[i]); got != want.PlacementOf(in) {
				t.Fatalf("%s: the rounds placed %s at %+v, CellShift at %+v", name, in.Name, got, want.PlacementOf(in))
			}
		}
		if diceMoves == 0 || diceWrites != diceMoves {
			t.Errorf("%s: the dicing stages wrote %d journal records for %d kept moves", name, diceWrites, diceMoves)
		}
		t.Logf("%s: %d dicing moves, %d journal records", name, diceMoves, diceWrites)
	}
}
