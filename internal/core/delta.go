package core

import (
	"context"
	"errors"
	"sync"

	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/route"
	"gdsiiguard/internal/sta"
)

// This file implements cross-chromosome delta evaluation: a mutated child
// chromosome is evaluated as a delta from previously evaluated relatives
// instead of from the baseline, following the gene→stage dependency map
// documented in params.go. It is not a second flow: a delta arena runs the
// one pipeline in flow.go (run → evaluate), and three of its stages choose
// a reusing path, each bit-identical to the from-scratch one.
//
//   - Operator (Scratch.applyOperator): the post-operator placement — a
//     diff against the baseline (layout.DiffPlacements) plus the operator
//     telemetry — is memoized by Params.OpKey(). The arena may already
//     hold it; otherwise the diff is replayed through the journal
//     (layout.ApplyMoves). LDA keys form chains (LDA:N:k+1 extends LDA:N:k
//     by one ldaIteration), so a miss can extend the arena's current chain
//     in place or resume from the deepest memoized prefix. Only a full
//     miss runs the operator from the baseline.
//   - Route (routeStage, Scratch.warmRoute): the placement-derived
//     route.Geometry is memoized per OpKey, and the route warm-starts from
//     a donor with the exact same NDR scale vector (Params.ScaleKey()),
//     rerouting only nets attached to cells placed differently by the
//     donor and the arena (route.Warm). Otherwise it routes cold on the
//     memoized geometry.
//   - Timing (timingStage): after a warm route, sta.AnalyzeDelta
//     re-propagates only the cones of the changed nets on top of the
//     donor's timing; otherwise the whole graph is analyzed.
//
// Power, security and DRC are deterministic functions of the routed layout
// and take the same path on every evaluation.
//
// The memo hangs off the Baseline (Baseline.Memo), so every consumer that
// shares a baseline — the nsga2 arena pool, the service design cache, the
// cluster worker baseline cache — shares the memo automatically, island
// epochs included. Memory is bounded by construction: the operator gene
// space admits at most 16 distinct OpKeys (CS plus 5 grids × 3 iteration
// counts), so ops and geometry maps never exceed 16 entries, and the donor
// route cache is an LRU capped at donorCacheCap.

// DeltaStats counts what delta evaluation reused and what it recomputed.
// The zero value is ready to use; Add merges.
type DeltaStats struct {
	// OpRuns counts operator computations with no reuse (a CS run or an
	// LDA chain from iteration zero).
	OpRuns int `json:"op_runs"`
	// OpMemoHits counts operator placements replayed from the shared memo
	// (exact OpKey hits and LDA prefix replays).
	OpMemoHits int `json:"op_memo_hits"`
	// OpArenaHits counts evaluations whose arena already held the operator
	// placement from a previous evaluation — no rollback, no replay.
	OpArenaHits int `json:"op_arena_hits"`
	// OpIterSteps counts LDA iterations executed on top of a reused prefix
	// (memoized or in-arena) rather than as part of a full chain.
	OpIterSteps int `json:"op_iter_steps"`
	// RoutesWarm / RoutesCold count route stages warm-started from a donor
	// vs routed cold.
	RoutesWarm int `json:"routes_warm"`
	RoutesCold int `json:"routes_cold"`
	// NetsReplayed / NetsRerouted count per-net outcomes across all route
	// stages (cold routes count every routed net as rerouted).
	NetsReplayed int `json:"nets_replayed"`
	NetsRerouted int `json:"nets_rerouted"`
	// StaFull / StaDelta count timing stages analyzed over the whole graph
	// vs delta-analyzed over changed-net cones only.
	StaFull  int `json:"sta_full"`
	StaDelta int `json:"sta_delta"`
	// StaConeInsts / StaConeNets total the forward (re-evaluated
	// combinational instances) and backward (recomputed required times)
	// cone sizes across all delta timing stages.
	StaConeInsts int `json:"sta_cone_insts"`
	StaConeNets  int `json:"sta_cone_nets"`
}

// Add accumulates o into d.
func (d *DeltaStats) Add(o DeltaStats) {
	d.OpRuns += o.OpRuns
	d.OpMemoHits += o.OpMemoHits
	d.OpArenaHits += o.OpArenaHits
	d.OpIterSteps += o.OpIterSteps
	d.RoutesWarm += o.RoutesWarm
	d.RoutesCold += o.RoutesCold
	d.NetsReplayed += o.NetsReplayed
	d.NetsRerouted += o.NetsRerouted
	d.StaFull += o.StaFull
	d.StaDelta += o.StaDelta
	d.StaConeInsts += o.StaConeInsts
	d.StaConeNets += o.StaConeNets
}

// warmDirtyMaxFrac is the largest fraction of dirty nets for which a warm
// start is attempted; past it, wholesale rerouting plus replay bookkeeping
// costs more than a cold route.
const warmDirtyMaxFrac = 0.35

// donorCacheCap bounds the per-baseline donor route cache (each entry
// holds one full route.Result).
const donorCacheCap = 8

// errOpAborted is what waiters on a shared operator computation see when
// the computing evaluation failed; it is transient because the entry is
// removed and the next attempt recomputes.
var errOpAborted = &FlowError{
	Stage: StageOperator,
	Class: ClassTransient,
	Err:   errors.New("shared operator computation aborted"),
}

// StageMemo is the cross-chromosome per-stage cache shared by every
// evaluation arena over one baseline. Safe for concurrent use.
type StageMemo struct {
	mu sync.Mutex
	// ops memoizes post-operator placements by OpKey with per-key
	// singleflight: the first evaluation computes, concurrent ones wait on
	// the entry, later ones replay.
	ops map[string]*opEntry
	// geos memoizes the placement-derived route geometry by OpKey.
	geos map[string]*route.Geometry
	// donors caches clean (zero-victim) route results by exact ScaleKey
	// for warm-starting, in LRU order (most recent last).
	donors     map[string]*donorEntry
	donorOrder []string
}

// opEntry is one memoized operator output. ready closes when the compute
// finishes; after that, err != nil means the compute failed (the entry is
// also removed from the map, so the next evaluation retries).
type opEntry struct {
	ready chan struct{}
	diff  []layout.InstMove
	cs    CellShiftResult
	lda   LDAResult
	err   error
}

// donorEntry is one warm-start donor: a clean route under a specific NDR
// scale, plus the placement (as a diff vs the baseline) it was routed on
// and the timing analysis of that routed state — the delta-STA donor for
// warm evaluations.
type donorEntry struct {
	opKey  string
	diff   []layout.InstMove
	routes *route.Result
	timing *sta.Result
}

func newStageMemo(b *Baseline) *StageMemo {
	m := &StageMemo{
		ops:    map[string]*opEntry{},
		geos:   map[string]*route.Geometry{},
		donors: map[string]*donorEntry{},
	}
	// The baseline route is the first donor: its placement diff is empty
	// and its NDR is the unscaled default, so identity-scale chromosomes
	// (every run evaluates at least the identity configuration) warm-start
	// immediately, rerouting only the nets the operator touched.
	if b != nil && b.Routes != nil && b.Routes.Victims == 0 && len(b.Routes.NDRScale) > 0 {
		key := scaleKey(b.Routes.NDRScale)
		m.donors[key] = &donorEntry{routes: b.Routes, timing: b.Timing}
		m.donorOrder = append(m.donorOrder, key)
	}
	return m
}

// Memo returns the baseline's shared stage memo, creating it on first use.
func (b *Baseline) Memo() *StageMemo {
	b.memoOnce.Do(func() { b.memo = newStageMemo(b) })
	return b.memo
}

// claimOp returns the entry for key. claimed is true when the caller owns
// the computation and must publishOp or failOp it; false means another
// evaluation is (or was) computing and the caller waits on entry.ready.
func (m *StageMemo) claimOp(key string) (e *opEntry, claimed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.ops[key]; ok {
		return e, false
	}
	e = &opEntry{ready: make(chan struct{})}
	m.ops[key] = e
	return e, true
}

// readyOp returns the completed entry for key, or nil if absent or still
// computing (prefix lookups never wait — a shallower prefix or the
// baseline is always available).
func (m *StageMemo) readyOp(key string) *opEntry {
	m.mu.Lock()
	e, ok := m.ops[key]
	m.mu.Unlock()
	if !ok {
		return nil
	}
	select {
	case <-e.ready:
		if e.err != nil {
			return nil
		}
		return e
	default:
		return nil
	}
}

// publishOp completes a claimed entry.
func (m *StageMemo) publishOp(e *opEntry, diff []layout.InstMove, cs CellShiftResult, lda LDAResult) {
	e.diff, e.cs, e.lda = diff, cs, lda
	close(e.ready)
}

// failOp abandons a claimed entry: waiters get err and the key is removed
// so the next evaluation recomputes.
func (m *StageMemo) failOp(key string, e *opEntry, err error) {
	e.err = err
	close(e.ready)
	m.mu.Lock()
	if m.ops[key] == e {
		delete(m.ops, key)
	}
	m.mu.Unlock()
}

// publishOpIfAbsent records an intermediate LDA chain link computed as a
// byproduct. Links already present (ready or computing) are left alone —
// a concurrent computer of the same link will publish the identical
// result.
func (m *StageMemo) publishOpIfAbsent(key string, diff []layout.InstMove, lda LDAResult) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.ops[key]; ok {
		return
	}
	e := &opEntry{ready: make(chan struct{}), diff: diff, lda: lda}
	close(e.ready)
	m.ops[key] = e
}

// geometry returns the route geometry for the given operator placement,
// building it from l (which must currently hold that placement) on first
// use.
func (m *StageMemo) geometry(opKey string, l *layout.Layout) *route.Geometry {
	m.mu.Lock()
	g, ok := m.geos[opKey]
	m.mu.Unlock()
	if ok {
		return g
	}
	g = route.BuildGeometry(l)
	m.mu.Lock()
	if prev, ok := m.geos[opKey]; ok {
		g = prev // a concurrent build won; both are identical
	} else {
		m.geos[opKey] = g
	}
	m.mu.Unlock()
	return g
}

// donor returns the warm-start donor for an exact NDR scale key, or nil.
func (m *StageMemo) donor(scaleKey string) *donorEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.donors[scaleKey]
	if !ok {
		return nil
	}
	for i, k := range m.donorOrder {
		if k == scaleKey {
			m.donorOrder = append(append(m.donorOrder[:i], m.donorOrder[i+1:]...), scaleKey)
			break
		}
	}
	return d
}

// putDonor caches a clean route result (and the timing analyzed on it) as
// the donor for its scale key, evicting the least recently used donor past
// donorCacheCap.
func (m *StageMemo) putDonor(scaleKey, opKey string, diff []layout.InstMove, routes *route.Result, timing *sta.Result) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.donors[scaleKey]; !ok {
		if len(m.donors) >= donorCacheCap {
			old := m.donorOrder[0]
			m.donorOrder = m.donorOrder[1:]
			delete(m.donors, old)
		}
		m.donorOrder = append(m.donorOrder, scaleKey)
	}
	m.donors[scaleKey] = &donorEntry{opKey: opKey, diff: diff, routes: routes, timing: timing}
}

// adopt records the arena's new post-operator state and its journal mark,
// so subsequent evaluations sharing the OpKey skip the operator entirely.
func (s *Scratch) adopt(opKey string, diff []layout.InstMove, cs CellShiftResult, lda LDAResult) {
	s.haveCur = true
	s.curOpKey = opKey
	s.curDiff = diff
	s.curCS, s.curLDA = cs, lda
	s.opMark = s.l.JournalMark()
}

// rewindOperator returns the arena to the baseline placement.
func (s *Scratch) rewindOperator() {
	s.haveCur = false
	s.curOpKey, s.curDiff = "", nil
	s.l.RollbackJournal(0)
	s.opMark = 0
}

// applyOperator brings the arena to the post-operator placement for p:
// in order of preference, the placement is already in the arena, the
// arena's LDA chain is extended in place, the memoized diff (or a
// memoized LDA prefix) is replayed, or the operator runs from the
// baseline — publishing what it computed for every later evaluation.
func (s *Scratch) applyOperator(ctx context.Context, p Params, res *Result) error {
	l, memo := s.l, s.memo
	opKey := p.OpKey()

	if s.haveCur && s.curOpKey == opKey {
		res.CSResult, res.LDAResult = s.curCS, s.curLDA
		s.stats.OpArenaHits++
		deltaOperator.With("arena_hit").Inc()
		return nil
	}
	if s.haveCur && p.Op == LDA {
		if n, it, ok := ParseLDAOpKey(s.curOpKey); ok && n == p.LDAGridN && it < p.LDAIters {
			_, lda, diff := s.computeOp(p, it, s.curLDA)
			memo.publishOpIfAbsent(opKey, diff, lda)
			res.LDAResult = lda
			deltaOperator.With("arena_extend").Inc()
			return nil
		}
	}
	s.rewindOperator()

	entry, claimed := memo.claimOp(opKey)
	if !claimed {
		select {
		case <-entry.ready:
		case <-ctx.Done():
			return ctx.Err()
		}
		if entry.err != nil {
			return entry.err
		}
		if err := l.ApplyMoves(entry.diff); err != nil {
			return err
		}
		s.adopt(opKey, entry.diff, entry.cs, entry.lda)
		res.CSResult, res.LDAResult = entry.cs, entry.lda
		s.stats.OpMemoHits++
		deltaOperator.With("memo_hit").Inc()
		return nil
	}

	// This evaluation owns the computation.
	published := false
	defer func() {
		if !published {
			memo.failOp(opKey, entry, errOpAborted)
		}
	}()

	// LDA starts from the deepest memoized prefix of its chain.
	from, lda := 0, LDAResult{}
	for it := p.LDAIters - 1; p.Op == LDA && it >= 1; it-- {
		if pe := memo.readyOp(LDAOpKey(p.LDAGridN, it)); pe != nil {
			if err := l.ApplyMoves(pe.diff); err != nil {
				return err
			}
			from, lda = it, pe.lda
			s.stats.OpMemoHits++
			deltaOperator.With("prefix_hit").Inc()
			break
		}
	}
	if from == 0 {
		s.stats.OpRuns++
		deltaOperator.With("run").Inc()
	}
	cs, lda, diff := s.computeOp(p, from, lda)
	memo.publishOp(entry, diff, cs, lda)
	published = true
	res.CSResult, res.LDAResult = cs, lda
	return nil
}

// computeOp runs p's operator on the arena — for LDA, from iteration from
// on top of the arena's acc — publishing every intermediate LDA chain link
// it completes, and adopts the result as the arena's lineage. Iterations
// run on a reused prefix count as OpIterSteps.
func (s *Scratch) computeOp(p Params, from int, acc LDAResult) (CellShiftResult, LDAResult, []layout.InstMove) {
	l, base := s.l, s.base
	cs, lda := runOperator(l, base, p, from, acc, func(next int, lda LDAResult) {
		if from > 0 {
			s.stats.OpIterSteps++
		}
		if next < p.LDAIters {
			s.memo.publishOpIfAbsent(LDAOpKey(p.LDAGridN, next), layout.DiffPlacements(base.Layout, l), lda)
		}
	})
	diff := layout.DiffPlacements(base.Layout, l)
	s.adopt(p.OpKey(), diff, cs, lda)
	return cs, lda, diff
}

// dirtyVsDonor marks every net with a terminal on a cell placed
// differently by the donor and the arena, and returns the dirty fraction.
// Both placements are diffs against the same baseline, so the moved set is
// computable without touching either layout.
func (s *Scratch) dirtyVsDonor(d *donorEntry) ([]bool, float64) {
	nl := s.l.Netlist
	dirty := make([]bool, len(nl.Nets))
	marked := 0
	markInst := func(id int) {
		for _, c := range nl.Insts[id].Conns {
			if !dirty[c.Net.ID] {
				dirty[c.Net.ID] = true
				marked++
			}
		}
	}
	donorTo := make(map[int]layout.Placement, len(d.diff))
	for _, m := range d.diff {
		donorTo[m.Inst] = m.To
	}
	curHas := make(map[int]bool, len(s.curDiff))
	for _, m := range s.curDiff {
		curHas[m.Inst] = true
		if to, ok := donorTo[m.Inst]; !ok || to != m.To {
			markInst(m.Inst)
		}
	}
	for _, m := range d.diff {
		if !curHas[m.Inst] {
			markInst(m.Inst) // donor moved it; the arena has it at baseline
		}
	}
	total := len(nl.Nets)
	if total == 0 {
		total = 1
	}
	return dirty, float64(marked) / float64(total)
}

// warmRoute warm-starts the arena's route from the donor routed under the
// same NDR scale, rerouting only what route.Warm must. It returns the
// donor's timing and the nets whose timing may differ from it, or a nil
// route when there is no donor, too many nets are dirty, or route.Warm
// declines.
func (s *Scratch) warmRoute(l *layout.Layout, cfg FlowConfig, geo *route.Geometry) (*route.Result, *sta.Result, []bool, error) {
	dn := s.memo.donor(scaleKey(l.NDR.Scale))
	if dn == nil {
		route.CountWarmDecline("no_donor")
		return nil, nil, nil, nil
	}
	dirty, frac := s.dirtyVsDonor(dn)
	if frac > warmDirtyMaxFrac {
		route.CountWarmDecline("dirty_frac")
		return nil, nil, nil, nil
	}
	routes, st, err := route.Warm(l, cfg.RouteOpts, geo, dn.routes, dirty)
	if routes == nil || err != nil {
		return nil, nil, nil, err
	}
	// The STA change mask is the warm route's ChangedNets plus the dirty
	// nets themselves (a moved cell can shift a net's HPWL-estimated RC
	// even when its route record is nil in both runs).
	changed := st.ChangedNets
	for id, dt := range dirty {
		if dt {
			changed[id] = true
		}
	}
	s.stats.RoutesWarm++
	s.stats.NetsReplayed += st.Replayed
	s.stats.NetsRerouted += st.Rerouted
	deltaRoutes.With("warm").Inc()
	deltaNets.With("replayed").Add(float64(st.Replayed))
	deltaNets.With("rerouted").Add(float64(st.Rerouted))
	return routes, dn.timing, changed, nil
}
