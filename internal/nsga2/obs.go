package nsga2

import "gdsiiguard/internal/obs"

// Optimizer telemetry (exposed by cmd/guardd at /metrics).
var (
	gensTotal = obs.Default().Counter(
		"gdsiiguard_nsga2_generations_total",
		"NSGA-II generations executed.").With()
	nsga2Evals = obs.Default().Counter(
		"gdsiiguard_nsga2_evaluations_total",
		"NSGA-II chromosome evaluations by result (fresh, cache_hit, failed).",
		"result")
	frontGauge = obs.Default().Gauge(
		"gdsiiguard_nsga2_front_size",
		"Rank-0 front size after the most recent generation.").With()
)
