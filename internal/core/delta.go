package core

import (
	"context"
	"sync"

	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/route"
)

// This file implements cross-chromosome delta evaluation: a mutated child
// chromosome is evaluated as a delta from previously evaluated relatives
// instead of from the baseline, following the gene→stage dependency map
// documented in params.go. It is not a second flow: a delta arena runs the
// one pipeline in flow.go (run → evaluate), and two of its stages choose a
// reusing path, each bit-identical to the from-scratch one.
//
//   - Operator (Scratch.applyOperator): the post-operator placement — a
//     diff against the baseline (layout.DiffPlacements) plus the operator
//     telemetry — is memoized by Params.OpKey(). Every evaluation rewinds
//     the arena to the baseline and replays the memoized diff through the
//     journal (layout.ApplyMoves). LDA keys form chains (LDA:N:k+1 extends
//     LDA:N:k by one ldaIteration), so a miss resumes from the deepest
//     memoized prefix. Only a full miss runs the operator from the
//     baseline.
//   - Route (routeStage): the placement-derived route.Geometry is memoized
//     per OpKey; the route itself always runs cold on it.
//
// Timing, power, security and DRC are deterministic functions of the
// routed layout and take the same path on every evaluation. Delta
// evaluation neither warm-starts routes nor delta-analyzes timing: a
// candidate route always has rip-up victims, so it can never donate to
// route.Warm, and against a victim-free baseline route the operators dirty
// more than a third of the nets. route.Warm and sta.AnalyzeDelta serve
// tile-local ECOs instead (DESIGN.md §14).
//
// The memo hangs off the Baseline (Baseline.Memo), so every consumer that
// shares a baseline — the nsga2 arena pool and the service design cache —
// shares the memo automatically. Memory is bounded by construction: the operator gene
// space admits at most 16 distinct OpKeys (CS plus 5 grids × 3 iteration
// counts), so neither map ever exceeds 16 entries.

// DeltaStats counts what delta evaluation reused and what it recomputed.
// The zero value is ready to use; Add merges.
type DeltaStats struct {
	// OpRuns counts operator computations with no reuse (a CS run or an
	// LDA chain from iteration zero).
	OpRuns int `json:"op_runs"`
	// OpMemoHits counts operator placements replayed from the shared memo
	// (exact OpKey hits and LDA prefix replays).
	OpMemoHits int `json:"op_memo_hits"`
	// OpArenaHits is always 0: every evaluation takes its operator
	// placement from the memo. The field stays so reports that read it
	// keep their shape.
	OpArenaHits int `json:"op_arena_hits"`
	// OpIterSteps counts LDA iterations executed on top of a memoized
	// prefix rather than as part of a full chain.
	OpIterSteps int `json:"op_iter_steps"`
	// RoutesWarm is always 0: delta evaluation routes cold. The field
	// stays so reports that read it keep their shape.
	RoutesWarm int `json:"routes_warm"`
	// NetsRerouted counts the routed nets across all route stages.
	NetsRerouted int `json:"nets_rerouted"`
}

// Add accumulates o into d.
func (d *DeltaStats) Add(o DeltaStats) {
	d.OpRuns += o.OpRuns
	d.OpMemoHits += o.OpMemoHits
	d.OpArenaHits += o.OpArenaHits
	d.OpIterSteps += o.OpIterSteps
	d.RoutesWarm += o.RoutesWarm
	d.NetsRerouted += o.NetsRerouted
}

// StageMemo is the cross-chromosome per-stage cache shared by every
// evaluation arena over one baseline. Safe for concurrent use.
type StageMemo struct {
	mu sync.Mutex
	// ops memoizes post-operator placements by OpKey with per-key
	// singleflight: the first evaluation computes, concurrent ones wait on
	// the entry, later ones replay. A waiter whose computer failed claims
	// the key and computes it itself.
	ops map[string]*opEntry
	// geos memoizes the placement-derived route geometry by OpKey.
	geos map[string]*route.Geometry
}

// opEntry is one memoized operator output. ready closes when the compute
// finishes; after that, failed means the compute was abandoned (the entry
// is already gone from the map, so the next claim computes).
type opEntry struct {
	ready  chan struct{}
	diff   []layout.InstMove
	cs     CellShiftResult
	lda    LDAResult
	failed bool
}

func newStageMemo() *StageMemo {
	return &StageMemo{
		ops:  map[string]*opEntry{},
		geos: map[string]*route.Geometry{},
	}
}

// Memo returns the baseline's shared stage memo, creating it on first use.
func (b *Baseline) Memo() *StageMemo {
	b.memoOnce.Do(func() { b.memo = newStageMemo() })
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
		if e.failed {
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

// failOp abandons a claimed entry. The key is removed before ready closes,
// so a woken waiter that claims again finds it absent and computes.
func (m *StageMemo) failOp(key string, e *opEntry) {
	m.mu.Lock()
	if m.ops[key] == e {
		delete(m.ops, key)
	}
	m.mu.Unlock()
	e.failed = true
	close(e.ready)
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

// applyOperator brings the arena, just rewound to the baseline, to the
// post-operator placement for p: the memoized diff is replayed, or the
// operator runs — for LDA from the deepest memoized prefix of its chain —
// publishing what it computed for every later evaluation. A waiter whose
// computer failed claims the key again; a waiter computes nothing while it
// waits, so claiming cannot deadlock.
func (s *Scratch) applyOperator(ctx context.Context, p Params, res *Result) error {
	l, base, memo := s.l, s.base, s.memo
	opKey := p.OpKey()

	entry, claimed := memo.claimOp(opKey)
	for !claimed {
		select {
		case <-entry.ready:
		case <-ctx.Done():
			return ctx.Err()
		}
		if !entry.failed {
			if err := l.ApplyMoves(entry.diff); err != nil {
				return err
			}
			res.CSResult, res.LDAResult = entry.cs, entry.lda
			s.stats.OpMemoHits++
			deltaOperator.With("memo_hit").Inc()
			return nil
		}
		entry, claimed = memo.claimOp(opKey)
	}

	// This evaluation owns the computation.
	published := false
	defer func() {
		if !published {
			memo.failOp(opKey, entry)
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
	// Every intermediate LDA chain link completed on the way is published
	// too; iterations run on a reused prefix count as OpIterSteps.
	cs, lda := runOperator(l, base, p, from, lda, func(next int, lda LDAResult) {
		if from > 0 {
			s.stats.OpIterSteps++
		}
		if next < p.LDAIters {
			memo.publishOpIfAbsent(LDAOpKey(p.LDAGridN, next), layout.DiffPlacements(base.Layout, l), lda)
		}
	})
	memo.publishOp(entry, layout.DiffPlacements(base.Layout, l), cs, lda)
	published = true
	res.CSResult, res.LDAResult = cs, lda
	return nil
}
