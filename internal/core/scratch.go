package core

import (
	"context"

	"gdsiiguard/internal/layout"
	"gdsiiguard/internal/route"
	"gdsiiguard/internal/security"
	"gdsiiguard/internal/sta"
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
// The analyses run in the arena's memory too: every evaluation's route,
// timing analysis and security assessment is built in the arena's route,
// STA and security workspaces, over the last evaluation's.
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
	// memo is the baseline's shared cross-chromosome stage cache, the
	// source of every evaluation's operator placement and route geometry.
	memo *StageMemo
	// routes, timing and assess are the memory every evaluation's route,
	// timing analysis and security assessment are built in; each
	// overwrites the last evaluation's result.
	routes route.Workspace
	timing sta.Workspace
	assess security.Workspace

	// Pristine state the arena is rewound to before each evaluation.
	baseFixed     []bool
	baseScale     []float64
	baseBlockages []layout.Blockage

	stats DeltaStats
}

// NewScratch builds an arena over the baseline: operator placements and
// route geometry are shared through the baseline's StageMemo. The baseline
// layout itself is never modified.
func NewScratch(base *Baseline) *Scratch {
	l := base.Layout.Clone()
	s := &Scratch{
		base:          base,
		l:             l,
		memo:          base.Memo(),
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

// Stats returns what this arena's delta evaluations reused so far.
func (s *Scratch) Stats() DeltaStats { return s.stats }

// reset rewinds the arena to its pristine (clone-time) state: placement
// through the journal, and the non-journaled Fixed flags, NDR scale and
// blockages from their snapshots.
func (s *Scratch) reset() {
	l := s.l
	if !l.Journaling() {
		l.BeginJournal()
	}
	l.RollbackJournal(0)
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
// Routes, Timing and Assessment are stripped, because the next evaluation
// rewrites them in place — the layout is the arena's, and the route,
// timing and assessment live in the arena's workspaces, each valid only
// until the next evaluation's route, analysis or assessment. Callers that
// need the hardened layout or its analyses use core.RunCtx.
func (s *Scratch) RunCtx(ctx context.Context, p Params) (*Result, error) {
	res, err := run(ctx, s.base, s, p)
	if err != nil {
		return nil, err
	}
	res.Layout, res.Routes, res.Timing, res.Assessment = nil, nil, nil, nil
	return res, nil
}
