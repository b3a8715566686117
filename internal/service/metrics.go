package service

// The manager's obs instrumentation: process-wide counters, live
// per-state gauges and latency histograms on the obs.Default registry,
// served by GET /metrics in Prometheus text format, the daemon's one
// metrics ledger. The registry aggregates every Manager in the process,
// so each job fact has one writer: countTransition for the state gauges
// and terminal counters, job.appendLocked for events (plus Submit, for
// the event a job is seeded with), Manager.evictLocked for evictions.

import "histwalk/internal/obs"

var (
	obsJobsSubmitted = obs.Default.Counter("histwalk_jobs_submitted_total",
		"Jobs admitted by Submit.")
	obsJobsDone = obs.Default.Counter("histwalk_jobs_done_total",
		"Jobs that completed successfully.")
	obsJobsFailed = obs.Default.Counter("histwalk_jobs_failed_total",
		"Jobs whose run errored.")
	obsJobsCancelled = obs.Default.Counter("histwalk_jobs_cancelled_total",
		"Jobs cancelled (explicit cancel, drain or shutdown).")
	obsJobsEvicted = obs.Default.Counter("histwalk_jobs_evicted_total",
		"Terminal jobs dropped by store eviction.")
	obsJobEvents = obs.Default.Counter("histwalk_job_events_total",
		"Progress and state events emitted across all jobs.")
	obsJobsQueued = obs.Default.Gauge("histwalk_jobs_queued",
		"Jobs currently waiting for a worker.")
	obsJobsRunning = obs.Default.Gauge("histwalk_jobs_running",
		"Jobs currently being driven.")
	obsJobQueueWait = obs.Default.Histogram("histwalk_job_queue_wait_seconds",
		"Time from admission to pickup by a worker.")
	obsJobRun = obs.Default.Histogram("histwalk_job_run_seconds",
		"Time from pickup to the terminal transition.")

	// Durability instrumentation (FileStore + recovery).
	obsJobsRecovered = obs.Default.Counter("histwalk_jobs_recovered_total",
		"Jobs rehydrated from the durable store at boot.")
	obsJobsResumed = obs.Default.Counter("histwalk_jobs_resumed_total",
		"Recovered running jobs resumed from a chain checkpoint.")
	obsResumeReplays = obs.Default.Counter("histwalk_resume_replays_total",
		"Checkpoint replays performed when resuming recovered jobs.")
	obsResumeFallbacks = obs.Default.Counter("histwalk_resume_fallbacks_total",
		"Recovered jobs whose checkpoint failed verification and were rerun from scratch.")
	obsCheckpointWrites = obs.Default.Counter("histwalk_checkpoint_writes_total",
		"Chain checkpoints persisted to the job store.")
	obsStoreCompactions = obs.Default.Counter("histwalk_store_compactions_total",
		"Log compactions (snapshot + truncate) of the file job store.")
	obsStoreTruncations = obs.Default.Counter("histwalk_store_truncations_total",
		"Corrupt log tails truncated while opening the file job store.")
	obsStoreErrors = obs.Default.Counter("histwalk_store_errors_total",
		"Write failures against the durable job store.")
	obsCheckpointWrite = obs.Default.Histogram("histwalk_checkpoint_write_seconds",
		"Latency of persisting one chain checkpoint.")
	obsStoreAppend = obs.Default.Histogram("histwalk_store_append_seconds",
		"Latency of appending one event record to the job log.")
	obsRecovery = obs.Default.Histogram("histwalk_recovery_seconds",
		"Time to open the store and rehydrate all jobs at boot.")
	obsResumeReplay = obs.Default.Histogram("histwalk_resume_replay_seconds",
		"Time to replay a chain checkpoint when resuming a recovered job.")
)

// countTransition is the one writer of the job-state ledger: the queued
// and running gauges and the done, failed and cancelled counters. from
// is "" for a live job entering this process's catalog (Submit,
// rehydrate); a job that stays in its state (a recovered running job
// re-entering running) moves nothing.
func countTransition(from, to State) {
	if from == to {
		return
	}
	switch from {
	case StateQueued:
		obsJobsQueued.Add(-1)
	case StateRunning:
		obsJobsRunning.Add(-1)
	}
	switch to {
	case StateQueued:
		obsJobsQueued.Add(1)
	case StateRunning:
		obsJobsRunning.Add(1)
	case StateDone:
		obsJobsDone.Inc()
	case StateFailed:
		obsJobsFailed.Inc()
	case StateCancelled:
		obsJobsCancelled.Inc()
	}
}

// traceJob emits one job-lifecycle span when tracing is enabled.
func traceJob(ev, id string, fields obs.F) {
	tr := obs.ActiveTracer()
	if tr == nil {
		return
	}
	if fields == nil {
		fields = obs.F{}
	}
	fields["job"] = id
	tr.Emit(ev, fields)
}
