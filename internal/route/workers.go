package route

import "sync/atomic"

// routeWorkersSetting holds the value last passed to SetWorkers.
var routeWorkersSetting atomic.Int32

// SetWorkers records a route worker count, which Workers reports back.
//
// Deprecated: routing is sequential; the setting changes nothing. It is
// kept only for the perfbench harness, which records it in its
// configuration.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	routeWorkersSetting.Store(int32(n))
}

// Workers returns the value last passed to SetWorkers (0 if never set).
//
// Deprecated: routing is sequential; see SetWorkers.
func Workers() int { return int(routeWorkersSetting.Load()) }

// ResolvedWorkers returns 1: every batch is routed by one sequential router.
//
// Deprecated: routing is sequential; see SetWorkers.
func ResolvedWorkers(numNets int) int { return 1 }
