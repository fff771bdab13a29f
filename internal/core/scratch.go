package core

import (
	"context"

	"gdsiiguard/internal/layout"
)

// Scratch is a reusable evaluation arena for metrics-only exploration.
//
// RunCtx clones the whole baseline layout — netlist, occupancy grid,
// placement table — for every evaluation, and exploration loops (NSGA-II)
// immediately discard the resulting layout, keeping only its Metrics. A
// Scratch clones once and instead restores the clone between evaluations:
// placement state rolls back through the layout's journal in O(moves), and
// the handful of non-journaled mutations the flow performs (Fixed flags
// from Preprocess/pinCritical, the NDR scale vector, LDA's transient
// blockages) are restored from snapshots taken at construction time.
//
// The restore runs at the START of each evaluation, not the end, so a
// Scratch self-heals: an evaluation that errors out mid-flow leaves the
// arena dirty, and the next use first rewinds it to the pristine state.
//
// Not safe for concurrent use; concurrent explorers keep one Scratch per
// worker (see nsga2's scratch pool).
type Scratch struct {
	base *Baseline
	l    *layout.Layout
	// memo is the baseline's shared cross-chromosome stage cache; nil
	// disables delta evaluation (every stage runs from the baseline
	// placement, exactly as for a fresh clone).
	memo *StageMemo

	// Pristine state the arena is rewound to before each evaluation.
	baseFixed     []bool
	baseScale     []float64
	baseBlockages []layout.Blockage

	// Arena lineage: the post-operator state currently materialized in l.
	// haveCur means the journal up to opMark reproduces curOpKey's
	// placement (with its curCS/curLDA telemetry), so an evaluation with
	// the same operator genes rolls back only past the route/evaluate
	// mutations and skips the operator stage entirely, and a longer LDA
	// chain extends in place. Cleared on any rewind to the baseline; an
	// errored evaluation leaves it intact only if the operator stage
	// completed (the state is still the committed one).
	haveCur  bool
	curOpKey string
	curCS    CellShiftResult
	curLDA   LDAResult
	opMark   int

	stats DeltaStats
}

// NewScratch builds a delta-evaluating arena over the baseline: operator
// placements and route geometry are shared through the baseline's
// StageMemo. The baseline layout itself is never modified.
func NewScratch(base *Baseline) *Scratch {
	s := newScratch(base)
	s.memo = base.Memo()
	return s
}

// NewScratchPlain builds an arena that evaluates every chromosome from
// scratch (no memo, no lineage reuse). Results are bit-identical to
// NewScratch's; this exists for A/B verification and as an escape hatch.
func NewScratchPlain(base *Baseline) *Scratch {
	return newScratch(base)
}

func newScratch(base *Baseline) *Scratch {
	l := base.Layout.Clone()
	s := &Scratch{
		base:          base,
		l:             l,
		baseFixed:     make([]bool, len(l.Netlist.Insts)),
		baseScale:     append([]float64(nil), l.NDR.Scale...),
		baseBlockages: append([]layout.Blockage(nil), l.Blockages...),
	}
	for i, in := range l.Netlist.Insts {
		s.baseFixed[i] = in.Fixed
	}
	// The journal stays open for the arena's lifetime; every evaluation's
	// placement mutations are recorded and rewound by the next reset.
	l.BeginJournal()
	return s
}

// Lineage reports the OpKey of the post-operator placement currently held
// by the arena ("" when the arena is at the baseline). Exploration loops
// use it to route a child chromosome to the arena already holding its
// parent's placement.
func (s *Scratch) Lineage() string {
	if !s.haveCur {
		return ""
	}
	return s.curOpKey
}

// Stats returns what this arena's delta evaluations reused so far.
func (s *Scratch) Stats() DeltaStats { return s.stats }

// reset rewinds the arena to its pristine (clone-time) state — or, when
// the arena holds a committed post-operator placement, only back to it:
// the non-journaled snapshots (Fixed flags, NDR scale, blockages) are
// restored either way, because the post-operator placement by
// construction has baseline Fixed flags and no blockages (operators unpin
// and clear blockages before committing).
func (s *Scratch) reset() {
	l := s.l
	if !l.Journaling() {
		l.BeginJournal()
	}
	if s.haveCur {
		l.RollbackJournal(s.opMark)
	} else {
		l.RollbackJournal(0)
		s.opMark = 0
	}
	for i, in := range l.Netlist.Insts {
		in.Fixed = s.baseFixed[i]
	}
	copy(l.NDR.Scale, s.baseScale)
	l.Blockages = append(l.Blockages[:0], s.baseBlockages...)
}

// Run is RunCtx with a background context.
func (s *Scratch) Run(p Params) (*Result, error) {
	return s.RunCtx(context.Background(), p)
}

// RunCtx evaluates one parameter vector exactly like core.RunCtx — same
// pipeline, same metrics — but on the reusable arena instead of a fresh
// clone. The result carries Metrics and operator telemetry only: Layout,
// Routes, Timing and Assessment are stripped, because they alias (or
// reference instances of) the arena, which the next evaluation mutates.
// Callers that need the hardened layout itself use core.RunCtx.
func (s *Scratch) RunCtx(ctx context.Context, p Params) (*Result, error) {
	res, err := run(ctx, s.base, s, p)
	if err != nil {
		return nil, err
	}
	res.Layout, res.Routes, res.Timing, res.Assessment = nil, nil, nil, nil
	return res, nil
}
