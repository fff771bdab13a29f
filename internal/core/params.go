// Package core implements the GDSII-Guard anti-Trojan ECO flow — the
// paper's primary contribution. It provides:
//
//   - the flow parameter space of Table I (operator selection, LDA grid and
//     iteration counts, per-layer routing width scale factors);
//   - preprocessing that locks security-critical cells in place;
//   - the Cell Shift ECO placement operator (Algorithm 1);
//   - the Dynamic Local Density Adjustment operator (Algorithm 2);
//   - the Routing Width Scaling ECO routing operator;
//   - the end-to-end flow f(L_base; x) that applies one parameter
//     configuration and extracts the post-design metrics (security, TNS,
//     power, DRC) consumed by the multi-objective optimizer.
package core

import (
	"fmt"
	"math/rand"
)

// Operator selects the ECO placement operator.
type Operator string

const (
	// CS is the Cell Shift operator, suited to designs with loose timing
	// constraints (long exploitable distances).
	CS Operator = "CS"
	// LDA is the Dynamic Local Density Adjustment operator, suited to
	// designs with tight timing or low utilization.
	LDA Operator = "LDA"
)

// Candidate values of Table I.
var (
	// LDAGridValues are the admissible LDA::N values.
	LDAGridValues = []int{2, 4, 8, 16, 32}
	// LDAIterValues are the admissible LDA::n_iter values.
	LDAIterValues = []int{1, 2, 3}
	// ScaleValues are the admissible RWS::scale_M[i] values.
	ScaleValues = []float64{1.0, 1.2, 1.5}
)

// Params is one point x in the flow's hyper-parameter space D (Table I).
type Params struct {
	// Op is op_select.
	Op Operator
	// LDAGridN is LDA::N, the grid count per row/column (used when Op ==
	// LDA).
	LDAGridN int
	// LDAIters is LDA::n_iter (used when Op == LDA).
	LDAIters int
	// ScaleM is RWS::scale_M[i] for metal i = 1..K.
	ScaleM []float64
}

// Validate checks that every gene holds an admissible value for a K-layer
// process.
func (p Params) Validate(k int) error {
	if p.Op != CS && p.Op != LDA {
		return fmt.Errorf("core: invalid op_select %q", p.Op)
	}
	if p.Op == LDA {
		if !containsInt(LDAGridValues, p.LDAGridN) {
			return fmt.Errorf("core: invalid LDA::N %d", p.LDAGridN)
		}
		if !containsInt(LDAIterValues, p.LDAIters) {
			return fmt.Errorf("core: invalid LDA::n_iter %d", p.LDAIters)
		}
	}
	if len(p.ScaleM) != k {
		return fmt.Errorf("core: scale_M has %d entries, want K=%d", len(p.ScaleM), k)
	}
	for i, s := range p.ScaleM {
		if !containsFloat(ScaleValues, s) {
			return fmt.Errorf("core: invalid scale_M[%d] = %g", i+1, s)
		}
	}
	return nil
}

// DefaultParams returns the identity configuration: CS with no width
// scaling.
func DefaultParams(k int) Params {
	s := make([]float64, k)
	for i := range s {
		s[i] = 1.0
	}
	return Params{Op: CS, LDAGridN: 8, LDAIters: 1, ScaleM: s}
}

// RandomParams draws a uniform random configuration for a K-layer process.
func RandomParams(k int, rng *rand.Rand) Params {
	p := Params{
		LDAGridN: LDAGridValues[rng.Intn(len(LDAGridValues))],
		LDAIters: LDAIterValues[rng.Intn(len(LDAIterValues))],
		ScaleM:   make([]float64, k),
	}
	if rng.Intn(2) == 0 {
		p.Op = CS
	} else {
		p.Op = LDA
	}
	for i := range p.ScaleM {
		p.ScaleM[i] = ScaleValues[rng.Intn(len(ScaleValues))]
	}
	return p
}

// Clone deep-copies the parameter vector.
func (p Params) Clone() Params {
	out := p
	out.ScaleM = append([]float64(nil), p.ScaleM...)
	return out
}

// Key returns a canonical string identity for deduplication. CS
// configurations ignore the LDA genes (they are inactive).
func (p Params) Key() string {
	return p.OpKey() + "|" + p.ScaleKey()
}

// Gene→stage dependency map. Each flow stage depends on a prefix of the
// chromosome, which is what makes per-stage memoization sound:
//
//	stage      depends on genes            key
//	operator   Op, LDAGridN, LDAIters      OpKey()   (placement diff)
//	route      operator output + ScaleM    OpKey()+ScaleKey()
//	timing     route output                —
//	power      route output                —
//	security   route + timing output       —
//	drc        route output                —
//
// The post-operator placement is independent of ScaleM because the NDR is
// installed after the operator runs; everything downstream of route is a
// deterministic function of the routed layout. Two chromosomes sharing an
// OpKey therefore share a post-operator placement bit-identically, and two
// chromosomes sharing a full Key share every stage (the nsga2 evaluator
// cache). StageMemo exploits the intermediate levels.

// OpKey returns the canonical identity of the operator-gene prefix — the
// genes the ECO placement stage depends on. CS has no sub-genes; LDA keys
// by grid count and iteration count. An LDA key is a chain: LDA:N:k+1 is
// LDA:N:k extended by one iteration (see ldaIteration).
func (p Params) OpKey() string {
	if p.Op == CS {
		return "CS"
	}
	return fmt.Sprintf("LDA:%d:%d", p.LDAGridN, p.LDAIters)
}

// LDAOpKey returns the OpKey of an LDA configuration with the given grid
// and iteration counts (the memo uses it to name intermediate chain links).
func LDAOpKey(gridN, iters int) string {
	return fmt.Sprintf("LDA:%d:%d", gridN, iters)
}

// ScaleKey returns the canonical identity of the routing-width genes
// (RWS::scale_M). Routes from two evaluations are interchangeable only
// when their ScaleKeys match exactly: the NDR scale multiplies every
// track-usage commit, so any difference changes congestion globally.
func (p Params) ScaleKey() string {
	return fmt.Sprintf("%v", p.ScaleM)
}

// SpaceSize returns |D| for a K-layer process: CS contributes 3^K
// configurations, LDA contributes |N|·|n_iter|·3^K (Table I reports ≈945k
// for K = 10).
func SpaceSize(k int) int64 {
	scales := int64(1)
	for i := 0; i < k; i++ {
		scales *= int64(len(ScaleValues))
	}
	return scales + int64(len(LDAGridValues)*len(LDAIterValues))*scales
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func containsFloat(xs []float64, v float64) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
