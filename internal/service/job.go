package service

// Job state, status snapshots and the per-job event log. Every mutation
// of a job happens under its own mutex and is published as an Event;
// subscribers (the SSE handler, tests) replay the log from any index
// and block for more via waitEvents, so a consumer that connects late
// still observes the full queued → running → terminal history in order.
// A finished job whose store serves its log (a FileStore) keeps only
// its summary; waitEvents then reads the log from the store.

import (
	"context"
	"sync"
	"time"

	"histwalk/internal/access"
	"histwalk/internal/session"
)

// State is a job's lifecycle position. Transitions are strictly
// queued → running → {done, failed, cancelled}, except that a queued
// job may move directly to cancelled (explicit cancel or drain).
type State string

const (
	// StateQueued marks a job admitted but not yet picked up by a
	// worker.
	StateQueued State = "queued"
	// StateRunning marks a job whose chains are being driven.
	StateRunning State = "running"
	// StateDone marks successful completion; Result is set.
	StateDone State = "done"
	// StateFailed marks a job whose run errored; Error is set.
	StateFailed State = "failed"
	// StateCancelled marks a job stopped by DELETE, drain or shutdown.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event is one entry of a job's progress stream.
type Event struct {
	// Seq numbers the event within its job, starting at 1; the SSE
	// layer uses it as the event id so clients can resume.
	Seq int `json:"seq"`
	// Job is the job ID.
	Job string `json:"job"`
	// Type is "state" (lifecycle change), "progress" (per-chain
	// update) or "result" (terminal event of a successful job).
	Type string `json:"type"`
	// State is the job's state when the event was emitted.
	State State `json:"state"`
	// Error carries the failure or cancellation reason on terminal
	// state events.
	Error string `json:"error,omitempty"`
	// Chain is the per-chain snapshot of a progress event.
	Chain *ChainProgress `json:"chain,omitempty"`
	// Estimates are the running pooled estimates at emission time
	// (absent until every chain has retained at least one sample).
	Estimates []RunningEstimate `json:"estimates,omitempty"`
	// Result is the final result, on "result" events only.
	Result *session.Result `json:"result,omitempty"`
	// Pipeline carries the pipelined access layer's final network
	// counters on terminal events of Transport-mode jobs, so the event
	// log alone rebuilds JobStatus.Pipeline after a restart.
	Pipeline *access.PipelineStats `json:"pipeline,omitempty"`
}

// ChainProgress is one chain's position within a running job. For a
// fixed chain the stream of its ChainProgress events has monotonically
// non-decreasing Spent and Steps — budgets only ever grow.
type ChainProgress struct {
	// Chain is the chain index.
	Chain int `json:"chain"`
	// Steps is the chain's transition count.
	Steps int `json:"steps"`
	// Spent is the chain's budget spend (unique queries under the
	// default cost model).
	Spent int `json:"spent"`
	// Samples is the chain's retained-sample count.
	Samples int `json:"samples"`
	// Done marks the chain's final snapshot.
	Done bool `json:"done,omitempty"`
}

// RunningEstimate is a mid-run view of one aggregate.
type RunningEstimate struct {
	// Name is the estimator's label.
	Name string `json:"name"`
	// Point is the pooled running estimate.
	Point float64 `json:"point"`
	// GelmanRubin is the running R̂ across chains (0 when not yet
	// computable).
	GelmanRubin float64 `json:"gelman_rubin,omitempty"`
}

// JobStatus is a point-in-time snapshot of a job, the unit the HTTP
// API serves.
type JobStatus struct {
	// ID is the job's deterministic identifier.
	ID string `json:"id"`
	// State is the lifecycle position at snapshot time.
	State State `json:"state"`
	// Error is the failure or cancellation reason, when terminal.
	Error string `json:"error,omitempty"`
	// Spec is the wire spec the job was submitted with, with a
	// transport auth_value replaced by "<redacted>".
	Spec session.SpecJSON `json:"spec"`
	// Chains holds the latest per-chain progress (empty until the job
	// starts emitting progress).
	Chains []ChainProgress `json:"chains,omitempty"`
	// Events is the number of events emitted so far.
	Events int `json:"events"`
	// Result is the final result, present iff State is done.
	Result *session.Result `json:"result,omitempty"`
	// Pipeline is the shared access pipeline's final network-side
	// counters, present once a pipelined (Transport-mode) job reaches a
	// terminal state — including failed and cancelled jobs, whose Result
	// is absent but whose wire spend is still real. Like
	// Result.Pipeline, these counters depend on goroutine scheduling and
	// are outside the determinism invariant.
	Pipeline *access.PipelineStats `json:"pipeline,omitempty"`
}

// job is the manager's internal record. All mutable fields are guarded
// by mu; cond is broadcast on every event append and state change.
type job struct {
	id   string
	seq  int // admission sequence number (the ID embeds it)
	wire session.SpecJSON
	spec session.Spec
	// store receives every appended event for durability; set once at
	// admission/adoption, before the job is shared.
	store JobStore

	mu   sync.Mutex
	cond *sync.Cond
	// sum is the job's status: the fold of its events (summary.apply).
	sum summary
	// events is the job's event log; nil once the job is terminal and
	// its store serves the log instead (handOffLocked).
	events []Event
	// submittedAt/startedAt feed the queue-wait and run-duration
	// histograms; startedAt is zero until the job enters running.
	submittedAt time.Time
	startedAt   time.Time
	// cancelRun aborts the in-flight run; non-nil exactly while
	// running.
	cancelRun context.CancelCauseFunc
	// recovered marks a job rehydrated from the durable store; resume
	// holds its last persisted checkpoint (nil = start from scratch).
	// A recovered job re-enters the queue in the running state, which
	// runJob otherwise rejects.
	recovered bool
	resume    *session.Checkpoint
}

// newJob returns a queued job whose event log already carries the
// "queued" state event, so subscribers always see the full lifecycle.
func newJob(seq int, id string, wire session.SpecJSON, spec session.Spec) *job {
	j := &job{id: id, seq: seq, wire: wire, spec: spec, submittedAt: time.Now()}
	j.cond = sync.NewCond(&j.mu)
	j.events = []Event{{Seq: 1, Job: id, Type: "state", State: StateQueued}}
	j.sum = summarize(j.events)
	return j
}

// appendLocked appends ev with the next sequence number, folds it into
// the job's status (summary.apply), counts and persists it, and wakes
// waiters. An event without a State carries the job's current one. The
// terminal event hands the log to the store (handOffLocked). Callers
// hold j.mu; the store's methods are safe to call under it (store
// mutexes are leaves of the lock order).
func (j *job) appendLocked(ev Event) {
	ev.Seq = j.sum.Events + 1
	ev.Job = j.id
	if ev.State == "" {
		ev.State = j.sum.State
	}
	j.events = append(j.events, ev)
	j.sum.apply(&ev)
	obsJobEvents.Inc()
	if j.store != nil {
		// Write failures are counted by the store (obsStoreErrors); the
		// in-memory event stream stays authoritative for live consumers.
		_ = j.store.RecordEvent(j.id, ev)
		if ev.State.Terminal() {
			j.handOffLocked()
		}
	}
	j.cond.Broadcast()
}

// handOffLocked drops a terminal job's event log when its store serves
// the whole of it (JobStore.HandOff), so a finished job costs the
// Manager only its summary. Callers hold j.mu.
func (j *job) handOffLocked() {
	if j.events != nil && j.store.HandOff(j.id, j.sum.Events) {
		j.events = nil
	}
}

// summary is a job's status as its event log folds it: state, error,
// per-chain progress, event count, Result and pipeline counters. It is
// all a finished job costs the Manager once its store serves the log,
// and what a segment's summary record holds (filestore.go).
type summary struct {
	State  State           `json:"state"`
	Error  string          `json:"error,omitempty"`
	Chains []ChainProgress `json:"chains,omitempty"`
	Events int             `json:"events"`
	Result *session.Result `json:"result,omitempty"`
	// Pipeline is the final PipelineStats snapshot of a pipelined job,
	// carried by its terminal event.
	Pipeline *access.PipelineStats `json:"pipeline,omitempty"`
}

// summarize folds an event log, from the queued state.
func summarize(evs []Event) summary {
	s := summary{State: StateQueued}
	for i := range evs {
		s.apply(&evs[i])
	}
	return s
}

// apply folds one event into the summary. The event log is the single
// source of truth for a job's status, and this is its one fold:
// appendLocked applies every live event, jobFromRecord replays a
// recovered log, and compaction folds a finished job's log once into
// the summary record it seals.
func (s *summary) apply(ev *Event) {
	s.Events++
	if ev.State != "" {
		s.State = ev.State
	}
	switch ev.Type {
	case "state", "result":
		s.Error = ev.Error
	}
	if ev.Result != nil {
		s.Result = ev.Result
	}
	if ev.Chain != nil {
		for len(s.Chains) <= ev.Chain.Chain {
			s.Chains = append(s.Chains, ChainProgress{Chain: len(s.Chains)})
		}
		s.Chains[ev.Chain.Chain] = *ev.Chain
	}
	if ev.Pipeline != nil {
		s.Pipeline = ev.Pipeline
	}
}

// setStateLocked moves the job to ev.State by appending ev, a "state"
// or "result" event, after moving the job-state ledger
// (countTransition). Callers hold j.mu.
func (j *job) setStateLocked(ev Event) {
	countTransition(j.sum.State, ev.State)
	j.appendLocked(ev)
}

// redacted replaces a transport credential in every JobStatus.
const redacted = "<redacted>"

// status snapshots the job. The spec's transport credential is
// redacted, so no client reads another's upstream secret; j.wire keeps
// it, because resuming the job needs it.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:       j.id,
		State:    j.sum.State,
		Error:    j.sum.Error,
		Spec:     j.wire,
		Events:   j.sum.Events,
		Result:   j.sum.Result,
		Pipeline: j.sum.Pipeline,
	}
	if t := j.wire.Transport; t != nil && t.AuthValue != "" {
		red := *t
		red.AuthValue = redacted
		st.Spec.Transport = &red
	}
	if len(j.sum.Chains) > 0 {
		st.Chains = append([]ChainProgress(nil), j.sum.Chains...)
	}
	return st
}

// stateNow returns the current state.
func (j *job) stateNow() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sum.State
}

// waitEvents blocks until the job has events past index `after`, the
// job is terminal, or ctx is done. It returns the new events (a copy),
// whether the job was terminal at snapshot time, and the ctx cause if
// the wait was cut short with nothing to deliver. A job that handed
// its log to the store gets the events from the store, outside j.mu; a
// failed read is returned as the error, with no events.
func (j *job) waitEvents(ctx context.Context, after int) ([]Event, bool, error) {
	if after < 0 {
		after = 0
	}
	// Broadcast under j.mu when ctx fires, so a waiter cannot check
	// ctx, miss the signal and sleep forever.
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()
	j.mu.Lock()
	for j.sum.Events <= after && !j.sum.State.Terminal() && ctx.Err() == nil {
		j.cond.Wait()
	}
	terminal := j.sum.State.Terminal()
	if j.sum.Events <= after {
		j.mu.Unlock()
		if err := ctx.Err(); err != nil {
			return nil, terminal, context.Cause(ctx)
		}
		return nil, terminal, nil
	}
	if j.events == nil {
		j.mu.Unlock()
		evs, err := j.store.Events(j.id, after)
		return evs, terminal, err
	}
	evs := make([]Event, len(j.events)-after)
	copy(evs, j.events[after:])
	j.mu.Unlock()
	return evs, terminal, nil
}
