package route

import "gdsiiguard/internal/obs"

// routeSeconds times each Route call end to end (grid build, initial
// routing, rip-up passes, finalize).
var routeSeconds = obs.Default().Histogram(
	"gdsiiguard_route_seconds",
	"Global-route wall time per Route call.", nil).With()

// warmDeclineTotal counts warm-start declines by reason, so a declined
// warm start is diagnosable from /metrics: no_donor (no donor route given),
// victims (donor was reshaped by rip-up), netlist (net count mismatch), ndr
// (NDR scale mismatch), grid (GCell grid mismatch), core (equal grid over a
// different core), library (donor routed over a different library), layers
// (fewer than 2 routing layers).
var warmDeclineTotal = obs.Default().Counter(
	"gdsiiguard_route_warm_decline_total",
	"Warm-start route declines by reason (the route fell back to a cold run).",
	"reason")
