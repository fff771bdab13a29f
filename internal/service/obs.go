package service

import "gdsiiguard/internal/obs"

// Job-lifecycle and cache telemetry (exposed by cmd/guardd at /metrics).
var (
	jobsSubmitted = obs.Default().Counter(
		"gdsiiguard_jobs_submitted_total",
		"Jobs accepted into the queue by kind.", "kind")
	jobsFinished = obs.Default().Counter(
		"gdsiiguard_jobs_finished_total",
		"Jobs reaching a terminal state by kind and state (done, failed, cancelled).",
		"kind", "state")
	jobAttempts = obs.Default().Counter(
		"gdsiiguard_job_attempts_total",
		"Job executions started, including re-executions of jobs re-queued after a restart.").With()
	queueWaitSeconds = obs.Default().Histogram(
		"gdsiiguard_job_queue_wait_seconds",
		"Time jobs spent queued before a worker picked them up.", nil).With()
	execSeconds = obs.Default().Histogram(
		"gdsiiguard_job_exec_seconds",
		"Job execution wall time (all attempts) by kind.", nil, "kind")
	workersBusy = obs.Default().Gauge(
		"gdsiiguard_service_workers_busy",
		"Workers currently executing a job.").With()
	workersBusyPeak = obs.Default().Gauge(
		"gdsiiguard_service_workers_busy_peak",
		"High watermark of concurrently busy workers.").With()
	cacheLookups = obs.Default().Counter(
		"gdsiiguard_design_cache_lookups_total",
		"Design-cache lookups by result (hit, miss).", "result")
)
