package histwalk

// Re-exports of the sampling-job service (internal/service): a Manager
// that executes serialized job specs (SpecJSON) with bounded
// concurrency on the trial-execution engine, tracks the lifecycle
// queued → running → done/failed/cancelled, streams per-chain progress
// events and drains gracefully on shutdown. NewServiceHandler exposes a
// Manager as the HTTP JSON API served by cmd/histwalkd. A job's Result
// is bit-identical to Run(ctx, spec) of the same resolved spec,
// regardless of how many other jobs are in flight.

import (
	"net/http"

	"histwalk/internal/service"
	"histwalk/internal/session"
)

// Sampling-job service types.
type (
	// Manager is the sampling-job service: admission queue, bounded
	// worker pool, in-memory job store with eviction.
	Manager = service.Manager
	// ManagerOptions configures a Manager (concurrency bound, queue
	// depth, store limit, progress-event granularity).
	ManagerOptions = service.Options
	// JobState is a job's lifecycle position.
	JobState = service.State
	// JobStatus is a point-in-time snapshot of a job.
	JobStatus = service.JobStatus
	// JobEvent is one entry of a job's progress stream.
	JobEvent = service.Event
	// ChainProgress is one chain's position within a running job.
	ChainProgress = service.ChainProgress
	// RunningEstimate is a mid-run view of one aggregate.
	RunningEstimate = service.RunningEstimate
	// Health is the /healthz payload: liveness plus build identity
	// (Go version, VCS revision when stamped).
	Health = service.Health
	// JobStore is the Manager's pluggable job catalog + durability
	// layer; choose an implementation via ManagerOptions.Store.
	JobStore = service.JobStore
	// JobRecord is the durable form of one job, as recovered from a
	// JobStore at boot.
	JobRecord = service.JobRecord
	// FileStoreOptions configures a durable file-backed job store.
	FileStoreOptions = service.FileStoreOptions
	// ServiceRecovery summarizes what OpenManager rehydrated from a
	// durable store at boot.
	ServiceRecovery = service.Recovery
	// SpecJSON is the serializable (wire) description of a sampling
	// run: datasets, walkers, estimators and policies chosen by name.
	SpecJSON = session.SpecJSON
	// EstimatorJSON is the serializable form of an EstimatorSpec.
	EstimatorJSON = session.EstimatorJSON
	// TransportJSON is the wire form of the access-pipeline
	// configuration: speculation window plus either a simulated
	// per-fetch latency ("sim") or a live HTTP endpoint ("http").
	TransportJSON = session.TransportJSON
)

// Job lifecycle states.
const (
	// JobQueued marks a job admitted but not yet picked up.
	JobQueued = service.StateQueued
	// JobRunning marks a job whose chains are being driven.
	JobRunning = service.StateRunning
	// JobDone marks successful completion.
	JobDone = service.StateDone
	// JobFailed marks a job whose run errored.
	JobFailed = service.StateFailed
	// JobCancelled marks a job stopped by cancel, drain or shutdown.
	JobCancelled = service.StateCancelled
)

// Service sentinel errors.
var (
	// ErrDraining is returned by Submit once Shutdown has begun.
	ErrDraining = service.ErrDraining
	// ErrQueueFull is returned by Submit at queue capacity.
	ErrQueueFull = service.ErrQueueFull
	// ErrUnknownJob is returned for job IDs not in the store.
	ErrUnknownJob = service.ErrUnknownJob
	// ErrJobTerminal is returned by Cancel on a finished job.
	ErrJobTerminal = service.ErrJobTerminal
)

// NewManager starts a sampling-job Manager; stop it with
// Manager.Shutdown.
func NewManager(opts ManagerOptions) *Manager { return service.NewManager(opts) }

// OpenManager starts a Manager over opts.Store, rehydrating every
// recovered job: terminal jobs reload as queryable history, queued
// jobs re-admit in original order, running jobs resume from their
// last chain checkpoint.
func OpenManager(opts ManagerOptions) (*Manager, *ServiceRecovery, error) {
	return service.OpenManager(opts)
}

// NewMemJobStore returns the in-process job store (no durability) —
// the default when ManagerOptions.Store is nil.
func NewMemJobStore() JobStore { return service.NewMemStore() }

// OpenFileJobStore opens (or creates) a durable job store in dir: an
// append-only, CRC-framed JSONL event log, compacted into immutable
// segments of finished jobs plus a manifest of live ones. Jobs recorded
// there survive a kill -9 and are rehydrated by OpenManager.
func OpenFileJobStore(dir string, opts FileStoreOptions) (JobStore, error) {
	return service.OpenFileStore(dir, opts)
}

// NewServiceHandler returns the HTTP JSON API over m (the API
// cmd/histwalkd serves): POST/GET/DELETE /v1/jobs, SSE progress
// streams under /v1/jobs/{id}/events, the Prometheus exposition of
// the process metrics registry at /metrics, and /healthz.
func NewServiceHandler(m *Manager) http.Handler { return service.NewHandler(m) }
