package service

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"histwalk/internal/session"
)

// wire returns a small valid job spec; budget and chains are sized so a
// job takes long enough to observe mid-run but finishes in well under a
// second.
func wire(seed int64) session.SpecJSON {
	return session.SpecJSON{
		Dataset: "clustered",
		Walker:  "cnrw",
		Budget:  50,
		Chains:  4,
		Seed:    seed,
	}
}

// await blocks until the job reaches a terminal state, with a test
// timeout.
func await(t *testing.T, m *Manager, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	after := 0
	for {
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		evs, terminal, err := m.WaitEvents(ctx, id, after)
		cancel()
		if err != nil {
			t.Fatalf("await %s: %v", id, err)
		}
		after += len(evs)
		if terminal {
			st, err := m.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
	}
}

func shutdown(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// waitState polls until the job reaches want; it fails fast if the job
// lands in a terminal state that is not the wanted one.
func waitState(t *testing.T, m *Manager, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s while waiting for %s", id, st.State, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s", id, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJobBitIdenticalToDirectRun is the subsystem's acceptance
// invariant: ≥4 concurrent interleaved jobs, each with a different
// seed, every Result bit-identical to a direct session.Run of the same
// resolved spec. Half the jobs name the deprecated "stepping":
// "batched" alias over the wire against per-chain reference runs, so
// the test also pins that the alias serves the per-chain Result.
func TestJobBitIdenticalToDirectRun(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 4})
	defer shutdown(t, m)

	const jobs = 6
	ids := make([]string, jobs)
	want := make([]*session.Result, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		w := wire(int64(100 + i))
		if i%2 == 1 {
			w.Cache = "shared" // interleave both cache policies
		}
		if i >= jobs/2 {
			w.Stepping = "batched" // and the deprecated stepping alias
		}
		st, err := m.Submit(w)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
		wg.Add(1)
		go func(i int, w session.SpecJSON) {
			defer wg.Done()
			w.Stepping = "" // reference is per-chain; batched jobs must match it
			spec, err := w.Spec()
			if err != nil {
				t.Error(err)
				return
			}
			res, err := session.Run(context.Background(), spec)
			if err != nil {
				t.Error(err)
				return
			}
			want[i] = res
		}(i, w)
	}
	wg.Wait()
	for i, id := range ids {
		st := await(t, m, id)
		if st.State != StateDone {
			t.Fatalf("job %d: state %s (%s)", i, st.State, st.Error)
		}
		if !reflect.DeepEqual(st.Result, want[i]) {
			t.Fatalf("job %d: service result differs from direct Run:\n%+v\nvs\n%+v", i, st.Result, want[i])
		}
	}
}

// TestEventStreamShape checks the event log of a completed job: seq
// dense from 1, queued → running → terminal bracketing, per-chain
// monotone non-decreasing budget order, a final Done snapshot per
// chain, and running estimates that eventually appear.
func TestEventStreamShape(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1})
	defer shutdown(t, m)
	st, err := m.Submit(wire(7))
	if err != nil {
		t.Fatal(err)
	}
	fin := await(t, m, st.ID)
	if fin.State != StateDone || fin.Result == nil {
		t.Fatalf("job finished %s (%s)", fin.State, fin.Error)
	}
	evs, terminal, err := m.WaitEvents(context.Background(), st.ID, 0)
	if err != nil || !terminal {
		t.Fatalf("WaitEvents: terminal=%v err=%v", terminal, err)
	}
	if evs[0].Type != "state" || evs[0].State != StateQueued {
		t.Fatalf("first event %+v, want queued state", evs[0])
	}
	if evs[1].Type != "state" || evs[1].State != StateRunning {
		t.Fatalf("second event %+v, want running state", evs[1])
	}
	last := evs[len(evs)-1]
	if last.Type != "result" || last.State != StateDone || last.Result == nil {
		t.Fatalf("last event %+v, want done result", last)
	}
	if !reflect.DeepEqual(last.Result, fin.Result) {
		t.Fatal("terminal event result differs from fetched result")
	}
	spent := map[int]int{}
	done := map[int]bool{}
	sawEstimates := false
	for i, ev := range evs {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Type != "progress" {
			continue
		}
		if ev.Chain == nil {
			t.Fatalf("progress event without chain: %+v", ev)
		}
		c := ev.Chain
		if c.Spent < spent[c.Chain] {
			t.Fatalf("chain %d budget went backwards: %d after %d", c.Chain, c.Spent, spent[c.Chain])
		}
		spent[c.Chain] = c.Spent
		if c.Done {
			done[c.Chain] = true
		}
		if len(ev.Estimates) > 0 {
			sawEstimates = true
			for _, e := range ev.Estimates {
				if e.Name == "" {
					t.Fatalf("unnamed running estimate: %+v", ev)
				}
			}
		}
	}
	if len(done) != 4 {
		t.Fatalf("final snapshots cover %d chains, want 4", len(done))
	}
	if !sawEstimates {
		t.Fatal("no progress event carried running estimates")
	}
}

// TestDeterministicJobIDs feeds two managers the same submission
// sequence and expects identical IDs; a differing spec must change the
// hash half of the ID.
func TestDeterministicJobIDs(t *testing.T) {
	a := NewManager(Options{MaxConcurrent: 1})
	b := NewManager(Options{MaxConcurrent: 1})
	defer shutdown(t, a)
	defer shutdown(t, b)
	var idsA, idsB []string
	for i := 0; i < 3; i++ {
		sa, err := a.Submit(wire(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		sb, err := b.Submit(wire(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		idsA = append(idsA, sa.ID)
		idsB = append(idsB, sb.ID)
	}
	if !reflect.DeepEqual(idsA, idsB) {
		t.Fatalf("same submissions, different IDs: %v vs %v", idsA, idsB)
	}
	if idsA[0] == idsA[1][:len(idsA[0])] {
		t.Fatalf("distinct submissions share an ID: %v", idsA)
	}
}

// installHold parks every job that reaches the running state until
// release is called (or the job's ctx is cancelled) — the deterministic
// way to pin jobs in chosen lifecycle states, immune to host speed.
func installHold(m *Manager) (release func()) {
	ch := make(chan struct{})
	m.mu.Lock()
	m.holdForTest = func(string) <-chan struct{} { return ch }
	m.mu.Unlock()
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

// TestCancelRunning cancels a job pinned in the running state and
// expects a cancelled terminal outcome without poisoning a sibling job
// submitted afterwards.
func TestCancelRunning(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 2})
	defer shutdown(t, m)
	release := installHold(m)
	victim, err := m.Submit(wire(1))
	if err != nil {
		t.Fatal(err)
	}
	// The victim parks in the running state; cancel it there.
	waitState(t, m, victim.ID, StateRunning)
	if _, err := m.Cancel(victim.ID); err != nil {
		t.Fatal(err)
	}
	st := await(t, m, victim.ID)
	if st.State != StateCancelled {
		t.Fatalf("victim state %s, want cancelled", st.State)
	}
	if st.Result != nil {
		t.Fatal("cancelled job carries a result")
	}
	release() // later jobs run unparked
	sibling, err := m.Submit(wire(2))
	if err != nil {
		t.Fatal(err)
	}
	if sib := await(t, m, sibling.ID); sib.State != StateDone {
		t.Fatalf("sibling state %s (%s), want done", sib.State, sib.Error)
	}
	// Cancelling a terminal job is a conflict, not a transition.
	if _, err := m.Cancel(victim.ID); !errors.Is(err, ErrJobTerminal) {
		t.Fatalf("second cancel err = %v, want ErrJobTerminal", err)
	}
}

// TestCancelQueued cancels a job that is still waiting for a worker.
func TestCancelQueued(t *testing.T) {
	before := scrapeMetrics(t)
	m := NewManager(Options{MaxConcurrent: 1})
	defer shutdown(t, m)
	installHold(m) // never released: the blocker parks until cancelled
	blocker, err := m.Submit(wire(3))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker.ID, StateRunning)
	queued, err := m.Submit(wire(4))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := m.Cancel(queued.ID); err != nil || st.State != StateCancelled {
		t.Fatalf("cancel queued: %+v, %v", st, err)
	}
	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	if st := await(t, m, queued.ID); st.State != StateCancelled {
		t.Fatalf("queued job ended %s", st.State)
	}
	if st := await(t, m, blocker.ID); st.State != StateCancelled {
		t.Fatalf("blocker ended %s", st.State)
	}
	if d := metricDelta(t, before, scrapeMetrics(t), "histwalk_jobs_cancelled_total"); d != 2 {
		t.Fatalf("jobs_cancelled_total grew %v, want 2", d)
	}
}

// TestFailedJob submits a spec that resolves but fails at run time
// (unknown measure attribute) and expects a failed terminal state.
func TestFailedJob(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1})
	defer shutdown(t, m)
	w := wire(5)
	w.Estimators = []session.EstimatorJSON{{Kind: "mean", Attr: "no_such_attr"}}
	st, err := m.Submit(w)
	if err != nil {
		t.Fatal(err)
	}
	fin := await(t, m, st.ID)
	if fin.State != StateFailed || fin.Error == "" {
		t.Fatalf("state %s (%q), want failed with reason", fin.State, fin.Error)
	}
}

// TestSubmitRejectsBadSpecs fails fast at admission.
func TestSubmitRejectsBadSpecs(t *testing.T) {
	before := scrapeMetrics(t)
	m := NewManager(Options{MaxConcurrent: 1})
	defer shutdown(t, m)
	bad := wire(1)
	bad.Walker = "teleport"
	if _, err := m.Submit(bad); err == nil {
		t.Fatal("bad walker admitted")
	}
	if metricDelta(t, before, scrapeMetrics(t), "histwalk_jobs_submitted_total") != 0 {
		t.Fatal("rejected submission counted")
	}
}

// TestDrainWithJobsInEveryState is the drain matrix: a done job, a
// failed job, a cancelled job, a running job and a queued job at
// Shutdown time. Running finishes, queued is cancelled, terminal states
// are untouched, and new submissions are refused.
func TestDrainWithJobsInEveryState(t *testing.T) {
	before := scrapeMetrics(t)
	m := NewManager(Options{MaxConcurrent: 1})

	doneJob, err := m.Submit(wire(10))
	if err != nil {
		t.Fatal(err)
	}
	await(t, m, doneJob.ID)

	failedW := wire(11)
	failedW.Estimators = []session.EstimatorJSON{{Kind: "mean", Attr: "no_such_attr"}}
	failedJob, err := m.Submit(failedW)
	if err != nil {
		t.Fatal(err)
	}
	await(t, m, failedJob.ID)

	// Pin the next job in the running state, queue two more behind it,
	// and cancel one of those while it is still queued.
	release := installHold(m)
	runningJob, err := m.Submit(wire(12))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, runningJob.ID, StateRunning)
	queuedJob, err := m.Submit(wire(13))
	if err != nil {
		t.Fatal(err)
	}
	cancelledJob, err := m.Submit(wire(14))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(cancelledJob.ID); err != nil {
		t.Fatal(err)
	}

	// Start the drain while the worker is parked on runningJob, release
	// the hold once draining is visible, and wait for a clean finish.
	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drainDone <- m.Shutdown(ctx)
	}()
	for !m.isDraining() {
		time.Sleep(time.Millisecond)
	}
	release()
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}

	for _, tc := range []struct {
		id   string
		want State
	}{
		{doneJob.ID, StateDone},
		{failedJob.ID, StateFailed},
		{cancelledJob.ID, StateCancelled},
		{runningJob.ID, StateDone},     // drain lets running jobs finish
		{queuedJob.ID, StateCancelled}, // drain cancels queued jobs
	} {
		st, err := m.Get(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != tc.want {
			t.Errorf("job %s: state %s, want %s", tc.id, st.State, tc.want)
		}
	}
	if _, err := m.Submit(wire(15)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit err = %v, want ErrDraining", err)
	}
	after := scrapeMetrics(t)
	running := metricDelta(t, before, after, "histwalk_jobs_running")
	queued := metricDelta(t, before, after, "histwalk_jobs_queued")
	if !m.isDraining() || running != 0 || queued != 0 {
		t.Fatalf("post-drain: draining %v, jobs_running moved %v, jobs_queued moved %v", m.isDraining(), running, queued)
	}
}

// TestForcedShutdownAbortsRunning expires the drain deadline while a
// job runs: the job ends cancelled with the shutdown reason.
func TestForcedShutdownAbortsRunning(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1})
	installHold(m) // never released: only the forced ctx cancel frees the job
	st, err := m.Submit(wire(16))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateRunning)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already-expired drain budget: force immediately
	if err := m.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown err = %v", err)
	}
	fin, err := m.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateCancelled {
		t.Fatalf("state %s, want cancelled after forced shutdown", fin.State)
	}
}

// TestStoreEviction keeps the store bounded, evicting oldest terminal
// jobs first, and Get on an evicted ID reports ErrUnknownJob.
func TestStoreEviction(t *testing.T) {
	before := scrapeMetrics(t)
	m := NewManager(Options{MaxConcurrent: 1, StoreLimit: 3})
	defer shutdown(t, m)
	var ids []string
	for i := 0; i < 6; i++ {
		st, err := m.Submit(wire(int64(20 + i)))
		if err != nil {
			t.Fatal(err)
		}
		await(t, m, st.ID)
		ids = append(ids, st.ID)
	}
	evicted := metricDelta(t, before, scrapeMetrics(t), "histwalk_jobs_evicted_total")
	if stored := len(m.List()); stored > 3 || evicted != 3 {
		t.Fatalf("after eviction: %d stored, jobs_evicted_total grew %v", stored, evicted)
	}
	if _, err := m.Get(ids[0]); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("evicted job Get err = %v, want ErrUnknownJob", err)
	}
	if _, err := m.Get(ids[5]); err != nil {
		t.Fatalf("newest job missing: %v", err)
	}
	if got := len(m.List()); got != 3 {
		t.Fatalf("List has %d jobs, want 3", got)
	}
}

// TestQueueFull rejects submissions beyond QueueDepth while a blocker
// occupies the only worker.
func TestQueueFull(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1, QueueDepth: 1})
	defer shutdown(t, m)
	// The blocker parks until cancelled. The release runs before the
	// shutdown: the worker may pick up the queued job before Shutdown
	// starts draining, and that job must not park until the drain's
	// deadline.
	defer installHold(m)()
	blocker, err := m.Submit(wire(30))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the blocker to leave the queue and occupy the worker.
	waitState(t, m, blocker.ID, StateRunning)
	if _, err := m.Submit(wire(31)); err != nil {
		t.Fatalf("first queued submit failed: %v", err)
	}
	if _, err := m.Submit(wire(32)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit err = %v, want ErrQueueFull", err)
	}
	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
}
