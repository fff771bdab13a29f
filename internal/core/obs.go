package core

import (
	"time"

	"gdsiiguard/internal/obs"
)

// Flow-level observability. Every metric lives in the obs default registry
// and is exposed by cmd/guardd at /metrics.
var (
	// stageSeconds is the per-stage wall-time histogram of the evaluation
	// hot path (operator, route, timing, power, security, drc).
	stageSeconds = obs.Default().Histogram(
		"gdsiiguard_flow_stage_seconds",
		"Wall time of one flow stage in seconds, labeled by stage.",
		nil, "stage")
	// flowEvals counts completed layout evaluations by outcome.
	flowEvals = obs.Default().Counter(
		"gdsiiguard_flow_evaluations_total",
		"Completed layout evaluations (baseline and candidate) by outcome.",
		"outcome")
	// evalsInflight tracks concurrently executing layout evaluations; its
	// peak (also exported) makes worker oversubscription visible.
	evalsInflight = obs.Default().Gauge(
		"gdsiiguard_flow_evals_inflight",
		"Layout evaluations currently executing.").With()
	evalsInflightPeak = obs.Default().Gauge(
		"gdsiiguard_flow_evals_inflight_peak",
		"High watermark of concurrently executing layout evaluations.").With()
	// deltaEvals counts arena (stage-memoized) evaluations; every one is
	// labeled mode="delta".
	deltaEvals = obs.Default().Counter(
		"gdsiiguard_delta_evaluations_total",
		"Arena evaluations by mode: delta (stage-memoized).",
		"mode")
	// deltaOperator records how each delta evaluation satisfied its
	// operator stage: run (computed in full), memo_hit (diff replay),
	// prefix_hit (LDA chain resumed from a memoized prefix).
	deltaOperator = obs.Default().Counter(
		"gdsiiguard_delta_operator_total",
		"Operator-stage outcomes of delta evaluations.",
		"outcome")
	// deltaNets counts the nets routed by delta evaluations; divided by
	// gdsiiguard_delta_evaluations_total{mode="delta"} it gives the routed
	// nets per evaluation.
	deltaNets = obs.Default().Counter(
		"gdsiiguard_delta_route_nets_total",
		"Nets routed by delta evaluations.").With()
)

// EvalsInflightGauge exposes the evaluation-occupancy gauge so callers
// (tests, the experiments runner) can verify concurrency bounds.
func EvalsInflightGauge() *obs.Gauge { return evalsInflight }

// beginEval marks one layout evaluation in flight; the returned func ends
// it and records the outcome.
func beginEval() func(err error) {
	evalsInflight.Inc()
	// The gauge maintains its own high watermark under its lock; mirroring
	// it into a separate gauge makes the peak visible on /metrics.
	evalsInflightPeak.SetMax(evalsInflight.Peak())
	return func(err error) {
		evalsInflight.Dec()
		outcome := "ok"
		if err != nil {
			outcome = "error"
		}
		flowEvals.With(outcome).Inc()
	}
}

// timedStage runs one flow stage under panic containment and records its
// wall time into the per-stage latency histogram.
func timedStage(stage Stage, f func() error) error {
	t0 := time.Now()
	err := runStage(stage, f)
	stageSeconds.With(string(stage)).Observe(time.Since(t0).Seconds())
	return err
}
