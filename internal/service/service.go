// Package service turns the sampling library into a long-lived,
// concurrent, multi-tenant system: a Manager accepts serialized job
// specs (session.SpecJSON), executes them with bounded concurrency on
// the deterministic trial-execution engine, tracks every job through
// the lifecycle queued → running → done/failed/cancelled, streams
// per-chain progress events, and drains gracefully on shutdown.
// cmd/histwalkd exposes a Manager over an HTTP JSON API (see
// NewHandler); the root histwalk package re-exports the types.
//
// The paper's workload is exactly this shape: crawling a live,
// rate-limited OSN interface takes hours-to-days per run (§2.1's query
// rate limits), so a practical deployment submits a crawl, watches its
// Gelman–Rubin diagnostics converge, and fetches the result later —
// while other tenants' crawls share the process.
//
// The subsystem preserves the repository's core invariant: a job's
// Result is bit-identical to a direct session.Run of the same resolved
// Spec, no matter how many other jobs are in flight. That holds by
// construction — each job drives its own session.Session on one
// goroutine (chains share no mutable state, seeds derive from the
// spec, never from scheduling) — and is enforced by tests that
// interleave ≥4 concurrent jobs against direct runs.
//
// Concurrency layering: the manager's workers *are* engine workers —
// NewManager submits MaxConcurrent queue-draining loops to one
// engine.Engine invocation, so job-level parallelism is bounded by the
// same worker-pool substrate every experiment loop runs on. Job
// cancellation uses per-job context causes (engine.Each returns
// context.Cause), so cancelling one job never poisons a sibling.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"time"

	"histwalk/internal/access"
	"histwalk/internal/engine"
	"histwalk/internal/obs"
	"histwalk/internal/session"
)

// Sentinel errors of the manager API.
var (
	// ErrDraining is returned by Submit once Shutdown has begun.
	ErrDraining = errors.New("service: manager is draining and accepts no new jobs")
	// ErrQueueFull is returned by Submit when the admission queue is at
	// capacity.
	ErrQueueFull = errors.New("service: job queue is full")
	// ErrUnknownJob is returned for job IDs not in the store (never
	// assigned, or evicted).
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrJobTerminal is returned by Cancel on an already-finished job.
	ErrJobTerminal = errors.New("service: job already in a terminal state")
	// ErrJobCancelled is the context cause attached when a running job
	// is cancelled via Cancel.
	ErrJobCancelled = errors.New("service: job cancelled")
	// ErrShutdown is the context cause attached when a forced shutdown
	// aborts running jobs.
	ErrShutdown = errors.New("service: manager shut down")
)

// Options configures a Manager. The zero value selects the documented
// defaults.
type Options struct {
	// MaxConcurrent bounds how many jobs run at once
	// (0 = runtime.GOMAXPROCS(0)).
	MaxConcurrent int
	// QueueDepth bounds how many admitted jobs may wait for a worker
	// (0 = 256). Submissions beyond it fail fast with ErrQueueFull.
	QueueDepth int
	// StoreLimit bounds the in-memory job store (0 = 1024). When
	// exceeded, the oldest *terminal* jobs are evicted; live jobs are
	// never dropped.
	StoreLimit int
	// ProgressTicks is the target number of progress events per chain
	// (0 = 64): a chain emits when its budget spend crosses multiples
	// of Budget/ProgressTicks. The event schedule depends only on the
	// spec, never on scheduling.
	ProgressTicks int
	// Store is the job store (nil = a fresh MemStore). Pass a FileStore
	// for durability; OpenManager additionally rehydrates its records.
	// The Manager owns the store from then on and closes it on
	// Shutdown.
	Store JobStore
	// CheckpointEvery is how many progress emissions elapse between
	// chain-checkpoint writes to the store (0 = 4). Lower means less
	// replay after a crash, at more write amplification.
	CheckpointEvery int
}

func (o Options) withDefaults() Options {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.StoreLimit <= 0 {
		o.StoreLimit = 1024
	}
	if o.ProgressTicks <= 0 {
		o.ProgressTicks = 64
	}
	if o.Store == nil {
		o.Store = NewMemStore()
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 4
	}
	return o
}

// Manager is the sampling-job service: an admission queue, a bounded
// worker pool on the trial-execution engine, and an in-memory job
// store with eviction. All methods are safe for concurrent use.
type Manager struct {
	opts  Options
	queue chan *job
	done  chan struct{}

	// poolCtx parents every job's run context; poolKill aborts all
	// running jobs on forced shutdown.
	poolCtx  context.Context
	poolKill context.CancelCauseFunc

	// store is the job catalog + durability layer; catalog mutations
	// happen under mu, reads may bypass it (the store locks itself).
	store JobStore

	mu       sync.Mutex
	seq      int // admission sequence, part of the job ID
	draining bool

	// holdForTest, when non-nil, may return a channel for a job ID; the
	// worker then parks that job — already in the running state —
	// until the channel closes or the job's ctx is cancelled. Tests use
	// it to pin jobs in chosen lifecycle states without depending on
	// timing; production code never sets it.
	holdForTest func(id string) <-chan struct{}
}

// NewManager starts a Manager: its worker pool — MaxConcurrent
// queue-draining loops submitted to one engine.Engine — runs until
// Shutdown. It is OpenManager without the recovery summary (records
// already in Options.Store are still rehydrated); it panics if the
// store's recovery fails, which the built-in stores never do.
func NewManager(opts Options) *Manager {
	m, _, err := OpenManager(opts)
	if err != nil {
		panic(err)
	}
	return m
}

// Recovery summarizes what OpenManager rehydrated from a durable
// store.
type Recovery struct {
	// Terminal counts finished jobs reloaded as queryable history.
	Terminal int `json:"terminal"`
	// Requeued counts queued jobs re-admitted in original order.
	Requeued int `json:"requeued"`
	// Resumed counts running jobs re-admitted with a chain checkpoint
	// to resume from.
	Resumed int `json:"resumed"`
	// Restarted counts running jobs re-admitted without a checkpoint
	// (they rerun from scratch — same Result either way).
	Restarted int `json:"restarted"`
	// Failed counts records that could not be rehydrated into runnable
	// jobs (e.g. their dataset no longer resolves); they reload in the
	// failed state with the reason attached.
	Failed int `json:"failed"`
	// Elapsed is the boot-recovery wall time.
	Elapsed time.Duration `json:"elapsed"`
}

// OpenManager starts a Manager over opts.Store, first rehydrating
// every job the store recovered: terminal jobs reload as queryable
// history, queued jobs re-enter the queue in original admission order,
// and running jobs re-enter with their last checkpoint to resume from
// mid-walk. The queue is sized to hold every recovered live job even
// when that exceeds QueueDepth, so recovery never drops work.
func OpenManager(opts Options) (*Manager, *Recovery, error) {
	opts = opts.withDefaults()
	t0 := time.Now()
	records, err := opts.Store.Recover()
	if err != nil {
		return nil, nil, err
	}
	live := 0
	for i := range records {
		if !records[i].State().Terminal() {
			live++
		}
	}
	depth := opts.QueueDepth
	if live > depth {
		depth = live
	}
	m := &Manager{
		opts:  opts,
		store: opts.Store,
		queue: make(chan *job, depth),
		done:  make(chan struct{}),
	}
	m.poolCtx, m.poolKill = context.WithCancelCause(context.Background())
	rec := &Recovery{}
	for i := range records {
		m.rehydrate(&records[i], rec)
	}
	if n := rec.Terminal + rec.Requeued + rec.Resumed + rec.Restarted + rec.Failed; n > 0 {
		m.evictLocked()
		traceJob("manager.recovered", "", obs.F{
			"terminal": rec.Terminal, "requeued": rec.Requeued,
			"resumed": rec.Resumed, "restarted": rec.Restarted, "failed": rec.Failed,
		})
	}
	rec.Elapsed = time.Since(t0)
	obsRecovery.Since(t0)
	eng := engine.New(engine.Options{Workers: opts.MaxConcurrent})
	go func() {
		defer close(m.done)
		// The pool context handed to Each stays un-cancelled: workers
		// must keep draining the queue even during a forced shutdown
		// (they mark the remaining jobs cancelled). Abort of running
		// jobs goes through poolKill → each job's own context.
		_ = eng.Each(context.Background(), opts.MaxConcurrent, func(_ context.Context, _ int) error {
			for j := range m.queue {
				m.runJob(j)
			}
			return nil
		})
	}()
	return m, rec, nil
}

// rehydrate rebuilds one recovered record into a catalog job and, for
// live records, re-enqueues it. A terminal job keeps only its summary
// when the store serves its events. Runs before the worker pool starts,
// so no locking discipline applies yet.
func (m *Manager) rehydrate(r *JobRecord, rec *Recovery) {
	j := jobFromRecord(r)
	j.store = m.store
	if j.seq > m.seq {
		m.seq = j.seq
	}
	m.store.Adopt(j)
	obsJobsRecovered.Inc()
	state := j.sum.State
	if state.Terminal() {
		j.handOffLocked()
		rec.Terminal++
		return
	}
	countTransition("", state) // a live job enters this process's catalog
	spec, err := r.Spec.Spec()
	if err != nil {
		// The spec no longer resolves (dataset gone, walker renamed):
		// surface the job as failed rather than dropping its history.
		j.setStateLocked(Event{Type: "state", State: StateFailed, Error: "recovery: " + err.Error()})
		rec.Failed++
		return
	}
	j.spec = spec
	if state == StateQueued {
		rec.Requeued++
	} else {
		j.recovered = true
		if j.resume != nil {
			rec.Resumed++
		} else {
			rec.Restarted++
		}
	}
	m.queue <- j
}

// jobFromRecord rebuilds the in-memory job from a durable record: a
// sealed record's stored summary, or its event log replayed through
// summary.apply, the fold the live path runs on every appended event.
func jobFromRecord(r *JobRecord) *job {
	j := &job{
		id:          r.ID,
		seq:         r.Seq,
		wire:        r.Spec,
		sum:         r.summary(),
		events:      append([]Event(nil), r.Events...),
		submittedAt: time.Now(),
		resume:      r.Checkpoint,
	}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// jobID derives the deterministic identifier of the seq-th admitted
// job: the admission index plus a short hash of the canonical wire
// bytes. Two managers fed the same submission sequence assign the same
// IDs, which makes service logs and tests reproducible.
func jobID(seq int, canonical []byte) string {
	h := fnv.New64a()
	h.Write(canonical)
	return fmt.Sprintf("j%05d-%08x", seq, uint32(h.Sum64()))
}

// Submit validates and admits a job, returning its queued status. The
// spec is resolved immediately, so malformed submissions fail here,
// not asynchronously.
func (m *Manager) Submit(wire session.SpecJSON) (JobStatus, error) {
	spec, err := wire.Spec()
	if err != nil {
		return JobStatus{}, clientError{err}
	}
	canonical, err := json.Marshal(wire)
	if err != nil {
		return JobStatus{}, fmt.Errorf("service: canonicalizing spec: %w", err)
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return JobStatus{}, ErrDraining
	}
	// Reserve queue room before the durable Add: sends happen only
	// under m.mu, so the check cannot be invalidated (receivers only
	// drain, which never fills the queue).
	if len(m.queue) == cap(m.queue) {
		m.mu.Unlock()
		return JobStatus{}, ErrQueueFull
	}
	j := newJob(m.seq+1, jobID(m.seq+1, canonical), wire, spec)
	j.store = m.store
	if err := m.store.Add(j); err != nil {
		m.mu.Unlock()
		return JobStatus{}, err
	}
	obsJobsSubmitted.Inc()
	obsJobEvents.Inc() // the seeded "queued" event
	countTransition("", StateQueued)
	m.queue <- j
	m.seq++
	m.evictLocked()
	m.mu.Unlock()
	traceJob("job.queued", j.id, nil)
	return j.status(), nil
}

// evictLocked applies the store's eviction policy (evictVictims in
// store.go): oldest terminal jobs drop while the store exceeds
// StoreLimit; live (queued/running) jobs are never evicted, so the
// store may transiently exceed the limit under a burst of live jobs.
// Every eviction, the one at boot included, goes through here.
func (m *Manager) evictLocked() {
	obsJobsEvicted.Add(int64(len(m.store.Evict(m.opts.StoreLimit))))
}

// lookup returns the stored job.
func (m *Manager) lookup(id string) (*job, error) {
	j, ok := m.store.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

// Get returns a job's status snapshot.
func (m *Manager) Get(id string) (JobStatus, error) {
	j, err := m.lookup(id)
	if err != nil {
		return JobStatus{}, err
	}
	return j.status(), nil
}

// List returns every stored job's status in admission order.
func (m *Manager) List() []JobStatus {
	jobs := m.store.All()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// WaitEvents blocks until the job has events past index `after`, the
// job is terminal, or ctx is done; it returns the new events and
// whether the job was terminal when they were snapshotted. See
// job.waitEvents.
func (m *Manager) WaitEvents(ctx context.Context, id string, after int) ([]Event, bool, error) {
	j, err := m.lookup(id)
	if err != nil {
		return nil, false, err
	}
	return j.waitEvents(ctx, after)
}

// Cancel stops a job: a queued job transitions to cancelled
// immediately, a running job is aborted via its context cause.
// Cancelling a terminal job returns ErrJobTerminal with the unchanged
// status.
func (m *Manager) Cancel(id string) (JobStatus, error) {
	j, err := m.lookup(id)
	if err != nil {
		return JobStatus{}, err
	}
	j.mu.Lock()
	switch {
	case j.sum.State.Terminal():
		j.mu.Unlock()
		return j.status(), ErrJobTerminal
	case j.cancelRun == nil:
		// Queued — or recovered-running still waiting for a worker
		// (its cancelRun is only rebuilt at pickup). Either way no run
		// is in flight: transition directly.
		j.setStateLocked(Event{Type: "state", State: StateCancelled, Error: "cancelled while queued"})
		j.mu.Unlock()
		traceJob("job.cancelled", j.id, obs.F{"reason": "cancelled while queued"})
	default: // running
		cancel := j.cancelRun
		j.mu.Unlock()
		cancel(ErrJobCancelled) // runJob finishes the transition
	}
	return j.status(), nil
}

// isDraining reports whether Shutdown has begun.
func (m *Manager) isDraining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Shutdown drains the manager: intake closes (Submit fails with
// ErrDraining), still-queued jobs transition to cancelled, running
// jobs finish normally, and the job store is closed (a FileStore
// compacts once more, leaving an empty log). If ctx expires first,
// running jobs are aborted with cause ErrShutdown and the ctx cause is
// returned once the pool has stopped. Shutdown is idempotent;
// concurrent calls all wait for the drain.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.queue)
	}
	m.mu.Unlock()
	select {
	case <-m.done:
		return m.store.Close()
	case <-ctx.Done():
		m.poolKill(ErrShutdown)
		<-m.done
		_ = m.store.Close()
		return context.Cause(ctx)
	}
}

// finish applies a job's terminal transition. It is only reached from
// runJob, after the job entered running. A done job's terminal event is
// its "result" event; every terminal event carries the pipelined
// network counters ps when the run produced them, so the durable log
// rebuilds JobStatus.Pipeline.
func (m *Manager) finish(j *job, s State, errMsg string, res *session.Result, ps *access.PipelineStats) {
	ev := Event{Type: "state", State: s, Error: errMsg, Pipeline: ps}
	if s == StateDone {
		ev.Type, ev.Result = "result", res
	}
	j.mu.Lock()
	j.setStateLocked(ev)
	j.cancelRun = nil
	started := j.startedAt
	j.mu.Unlock()
	obsJobRun.Since(started)
	f := obs.F{}
	if errMsg != "" {
		f["err"] = errMsg
	}
	traceJob("job."+string(s), j.id, f)
}

// runJob executes one popped queue entry on the calling worker. A
// recovered running job arrives here already in the running state with
// j.recovered set; it re-enters running (a fresh "running" event marks
// the resume point in the durable log) and its session replays from
// j.resume inside drive.
func (m *Manager) runJob(j *job) {
	if m.isDraining() {
		// Graceful drain: jobs still queued (or recovered but not yet
		// picked up) when Shutdown began are cancelled, not run.
		j.mu.Lock()
		recovered := j.recovered && j.sum.State == StateRunning
		if j.sum.State != StateQueued && !recovered {
			j.mu.Unlock()
			return
		}
		j.setStateLocked(Event{Type: "state", State: StateCancelled, Error: "cancelled: manager drained before start"})
		j.mu.Unlock()
		traceJob("job.cancelled", j.id, obs.F{"reason": "manager drained before start"})
		return
	}
	j.mu.Lock()
	recovered := j.recovered && j.sum.State == StateRunning
	if j.sum.State != StateQueued && !recovered { // cancelled while waiting
		j.mu.Unlock()
		return
	}
	j.recovered = false
	ctx, cancel := context.WithCancelCause(m.poolCtx)
	j.cancelRun = cancel
	j.startedAt = time.Now()
	j.setStateLocked(Event{Type: "state", State: StateRunning})
	queueWait := j.startedAt.Sub(j.submittedAt)
	j.mu.Unlock()
	obsJobQueueWait.Observe(queueWait)
	traceJob("job.running", j.id, nil)
	defer cancel(nil)

	m.mu.Lock()
	hold := m.holdForTest
	m.mu.Unlock()
	if hold != nil {
		if ch := hold(j.id); ch != nil {
			select {
			case <-ch:
			case <-ctx.Done():
			}
		}
	}

	res, ps, err := m.drive(ctx, j)
	switch {
	case err == nil:
		m.finish(j, StateDone, "", res, ps)
	case errors.Is(err, ErrJobCancelled):
		m.finish(j, StateCancelled, ErrJobCancelled.Error(), nil, ps)
	case errors.Is(err, ErrShutdown):
		m.finish(j, StateCancelled, ErrShutdown.Error(), nil, ps)
	default:
		m.finish(j, StateFailed, err.Error(), nil, ps)
	}
}

// drive runs the job's session to completion on the calling goroutine,
// emitting per-chain progress events whenever a chain's budget spend
// crosses the next stride boundary. Driving incrementally (rather than
// delegating to session.Run) is what lets the service observe every
// transition and compute running estimates without perturbing the walk:
// a Session's final Result is identical to Run's by construction. The
// chains are deliberately interleaved on this one goroutine — mid-run
// sess.Result() merges are then race-free, and the service's
// parallelism axis is concurrent jobs (Options.MaxConcurrent), not
// chains within a job; that is also why SpecJSON carries no Workers
// field.
//
// Whatever the outcome, drive also returns the pipeline's final network
// counters (nil unless the job is pipelined): a cancelled or failed
// pipelined crawl still reports what it paid on the wire.
func (m *Manager) drive(ctx context.Context, j *job) (res *session.Result, ps *access.PipelineStats, err error) {
	j.mu.Lock()
	resume := j.resume
	prior := append([]ChainProgress(nil), j.sum.Chains...)
	j.mu.Unlock()
	sess, err := session.NewSession(j.spec)
	if err != nil {
		return nil, nil, err
	}
	// On every return, set ps, then close the session drive ends with
	// (replay may have swapped it): its speculative fetches stop, and its
	// unfinished chains count as abandoned.
	defer func() {
		ps = sess.PipelineStats()
		sess.Close()
	}()
	if resume != nil {
		if sess, resume, err = m.replay(ctx, j, sess, resume); err != nil {
			return nil, nil, err
		}
	}
	chains := j.spec.Chains
	if chains == 0 {
		chains = 1
	}
	stride := j.spec.Budget / m.opts.ProgressTicks
	if stride < 1 {
		stride = 1
	}
	// One schedule whatever the recovery path: a chain's next emission
	// is the first stride above the spend its last logged event reports
	// (0 for a new job), so a rerun never repeats a milestone the
	// durable log holds. A checkpoint is taken only after the emissions
	// it covers are logged, so it can never be ahead of the log; it only
	// seeds the per-chain counts the events report.
	next := make([]int, chains)
	track := make([]ChainProgress, chains)
	for i := range track {
		track[i].Chain = i
		logged := 0
		if i < len(prior) {
			logged = prior[i].Spent
		}
		next[i] = stride * (logged/stride + 1)
	}
	if resume != nil {
		for i, c := range resume.Chains {
			if i < chains {
				track[i] = ChainProgress{Chain: i, Steps: c.Steps, Spent: c.Spent, Samples: c.Samples}
			}
		}
	}
	sinceCheckpoint := 0
	for {
		u, ok, err := sess.NextContext(ctx)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			break
		}
		cp := &track[u.Chain]
		cp.Steps = u.Step
		cp.Spent = u.Spent
		if u.Sampled {
			cp.Samples++
		}
		if u.Spent >= next[u.Chain] {
			for next[u.Chain] <= u.Spent {
				next[u.Chain] += stride
			}
			m.emitProgress(j, *cp, runningEstimates(sess.Result()))
			if sinceCheckpoint++; sinceCheckpoint >= m.opts.CheckpointEvery {
				sinceCheckpoint = 0
				m.checkpoint(j, sess)
			}
		}
	}
	// Final per-chain snapshots, in chain order, with the completed
	// estimates attached to the last one. One merge serves both: a merge
	// error fails the job only after the snapshots, as the job's Result.
	res, err = sess.Result()
	ests := runningEstimates(res, err)
	for i := range track {
		track[i].Done = true
		var e []RunningEstimate
		if i == len(track)-1 {
			e = ests
		}
		m.emitProgress(j, track[i], e)
	}
	return res, nil, err
}

// replay advances a fresh session to the job's recovered checkpoint
// and returns the session to drive with the checkpoint it resumed from.
// A checkpoint that fails verification (corrupt record, incompatible
// build) downgrades to a from-scratch rerun on a new session, returned
// with a nil checkpoint — slower, but the Result is bit-identical either
// way, which is the contract that matters.
func (m *Manager) replay(ctx context.Context, j *job, sess *session.Session, cp *session.Checkpoint) (*session.Session, *session.Checkpoint, error) {
	t0 := time.Now()
	err := sess.ResumeFrom(ctx, cp)
	obsResumeReplays.Inc()
	obsResumeReplay.Since(t0)
	if err == nil {
		obsJobsResumed.Inc()
		traceJob("job.resumed", j.id, obs.F{"chains": len(cp.Chains)})
		return sess, cp, nil
	}
	if ctx != nil && ctx.Err() != nil {
		return sess, nil, err
	}
	obsResumeFallbacks.Inc()
	traceJob("job.resume_fallback", j.id, obs.F{"err": err.Error()})
	sess.Close()
	fresh, ferr := session.NewSession(j.spec)
	if ferr != nil {
		return sess, nil, ferr
	}
	return fresh, nil, nil
}

// checkpoint persists the session's current chain progress; called
// between transitions on the driving goroutine, which is the
// concurrency contract session.Checkpoint requires.
func (m *Manager) checkpoint(j *job, sess *session.Session) {
	// Write failures are counted by the store; the run continues — a
	// lost checkpoint only costs replay distance after a crash.
	_ = j.store.RecordCheckpoint(j.id, sess.Checkpoint())
}

// runningEstimates renders the outcome of a session merge as pooled
// running estimates; nil when the merge failed, as it does until every
// chain has retained a sample.
func runningEstimates(res *session.Result, err error) []RunningEstimate {
	if err != nil {
		return nil
	}
	out := make([]RunningEstimate, len(res.Estimates))
	for i, e := range res.Estimates {
		r := e.GelmanRubin
		if math.IsInf(r, 0) || math.IsNaN(r) {
			r = 0 // JSON has no Inf/NaN; absent means "not yet computable"
		}
		out[i] = RunningEstimate{Name: e.Name, Point: e.Point, GelmanRubin: r}
	}
	return out
}

// emitProgress appends one progress event, which refreshes the job's
// status snapshot for that chain.
func (m *Manager) emitProgress(j *job, cp ChainProgress, ests []RunningEstimate) {
	j.mu.Lock()
	j.appendLocked(Event{Type: "progress", Chain: &cp, Estimates: ests})
	j.mu.Unlock()
	if tr := obs.ActiveTracer(); tr != nil {
		tr.Emit("chain.milestone", obs.F{
			"job": j.id, "chain": cp.Chain, "steps": cp.Steps,
			"spent": cp.Spent, "samples": cp.Samples, "done": cp.Done,
		})
	}
}
