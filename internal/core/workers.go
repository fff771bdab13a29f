package core

import (
	"sync/atomic"

	"gdsiiguard/internal/layout"
)

// operatorBandWorkersSetting holds the value last passed to
// SetOperatorBandWorkers.
var operatorBandWorkersSetting atomic.Int32

// SetOperatorBandWorkers records an operator band worker count, which
// OperatorBandWorkers reports back.
//
// Deprecated: the operator stage's mass scan is sequential; the setting
// changes nothing. It is kept only for the perfbench harness, which
// records it in its configuration.
func SetOperatorBandWorkers(n int) {
	if n < 0 {
		n = 0
	}
	operatorBandWorkersSetting.Store(int32(n))
}

// OperatorBandWorkers returns the value last passed to
// SetOperatorBandWorkers (0 if never set).
//
// Deprecated: the mass scan is sequential; see SetOperatorBandWorkers.
func OperatorBandWorkers() int { return int(operatorBandWorkersSetting.Load()) }

// ResolvedOperatorBandWorkers returns 1: every mass scan is one sequential
// pass over the rows.
//
// Deprecated: the mass scan is sequential; see SetOperatorBandWorkers.
func ResolvedOperatorBandWorkers(numRows int) int { return 1 }

// ExploitableFreeMass computes the operator stage's progress measure: the
// total weight of empty-site components at or above threshER.
//
// Deprecated: kept only for the perfbench harness, which times it on the
// SoC baseline.
func ExploitableFreeMass(l *layout.Layout, threshER int) int {
	e := enginePool.Get().(*shiftEngine)
	m := e.exploitableMass(l, threshER)
	e.release()
	return m
}
