package service

// The job ledger on the process registry: every lifecycle path moves the
// state gauges, the terminal counters, the event counter and the
// eviction counter exactly as far as the jobs it touches.

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"histwalk/internal/session"
)

// recoverable returns the records a FileStore opened on dir would hand
// to OpenManager, read from a copy so dir itself stays untouched.
func recoverable(t *testing.T, dir string) []JobRecord {
	t.Helper()
	fs, err := OpenFileStore(copyDir(t, dir), FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := fs.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// fileStoreOn opens a FileStore on dir for the measured Manager.
func fileStoreOn(t *testing.T, dir string) JobStore {
	t.Helper()
	fs, err := OpenFileStore(dir, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// awaitAll waits until every stored job is terminal.
func awaitAll(t *testing.T, m *Manager) {
	t.Helper()
	for _, st := range m.List() {
		await(t, m, st.ID)
	}
}

// wantState fails unless job id is in state want.
func wantState(t *testing.T, m *Manager, id string, want State) {
	t.Helper()
	st, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != want {
		t.Fatalf("job %s ended %s (%s), want %s", id, st.State, st.Error, want)
	}
}

// TestJobLedger drives one lifecycle path per row and reads the
// registry before the measured Manager opens and after it shuts down.
// Whatever a row prepares (a crash image, a store written by an earlier
// Manager) finishes before the first read. Then:
//   - histwalk_job_events_total grows by the events appended in this
//     process: each job's JobStatus.Events minus its recovered ones;
//   - histwalk_jobs_queued and histwalk_jobs_running end where they
//     started;
//   - every job that turns terminal in this process adds 1 to exactly
//     one of done, failed and cancelled;
//   - histwalk_jobs_evicted_total grows by the IDs that left List();
//   - histwalk_jobs_submitted_total grows by the admitted submissions.
func TestJobLedger(t *testing.T) {
	badWalker := wire(1)
	badWalker.Walker = "teleport"
	for _, tc := range []struct {
		name string
		// prepare, when set, builds the measured Manager's store and
		// returns its options and the records the store will recover.
		prepare func(t *testing.T) (Options, []JobRecord)
		// run drives the measured Manager and returns the IDs it
		// admitted.
		run func(t *testing.T, m *Manager) []string
	}{
		{name: "done", run: func(t *testing.T, m *Manager) []string {
			st, err := m.Submit(wire(800))
			if err != nil {
				t.Fatal(err)
			}
			await(t, m, st.ID)
			wantState(t, m, st.ID, StateDone)
			return []string{st.ID}
		}},
		{name: "failed at run time", run: func(t *testing.T, m *Manager) []string {
			w := wire(801)
			w.Estimators = []session.EstimatorJSON{{Kind: "mean", Attr: "no_such_attr"}}
			st, err := m.Submit(w)
			if err != nil {
				t.Fatal(err)
			}
			await(t, m, st.ID)
			wantState(t, m, st.ID, StateFailed)
			return []string{st.ID}
		}},
		{name: "cancelled while queued", run: func(t *testing.T, m *Manager) []string {
			release := installHold(m)
			blocker, err := m.Submit(wire(802))
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, m, blocker.ID, StateRunning)
			queued, err := m.Submit(wire(803))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Cancel(queued.ID); err != nil {
				t.Fatal(err)
			}
			wantState(t, m, queued.ID, StateCancelled)
			release()
			await(t, m, blocker.ID)
			return []string{blocker.ID, queued.ID}
		}},
		{name: "cancelled while running", run: func(t *testing.T, m *Manager) []string {
			installHold(m) // never released: the job parks until cancelled
			st, err := m.Submit(wire(804))
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, m, st.ID, StateRunning)
			if _, err := m.Cancel(st.ID); err != nil {
				t.Fatal(err)
			}
			await(t, m, st.ID)
			wantState(t, m, st.ID, StateCancelled)
			return []string{st.ID}
		}},
		{name: "drained while queued", run: func(t *testing.T, m *Manager) []string {
			release := installHold(m)
			blocker, err := m.Submit(wire(805))
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, m, blocker.ID, StateRunning)
			queued, err := m.Submit(wire(806))
			if err != nil {
				t.Fatal(err)
			}
			drained := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				drained <- m.Shutdown(ctx)
			}()
			for !m.isDraining() {
				time.Sleep(time.Millisecond)
			}
			release()
			if err := <-drained; err != nil {
				t.Fatalf("drain: %v", err)
			}
			wantState(t, m, blocker.ID, StateDone)
			wantState(t, m, queued.ID, StateCancelled)
			return []string{blocker.ID, queued.ID}
		}},
		{name: "aborted by a forced shutdown", run: func(t *testing.T, m *Manager) []string {
			installHold(m) // never released: only the forced abort frees the job
			st, err := m.Submit(wire(807))
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, m, st.ID, StateRunning)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := m.Shutdown(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("forced Shutdown err = %v", err)
			}
			wantState(t, m, st.ID, StateCancelled)
			return []string{st.ID}
		}},
		{
			// The crash image holds a queued job behind one parked in the
			// running state, as in TestQueuedJobsReadmitInOrder.
			name: "recovered queued",
			prepare: func(t *testing.T) (Options, []JobRecord) {
				dir := t.TempDir()
				m1, _ := openFileManager(t, dir, Options{MaxConcurrent: 1})
				release := installHold(m1)
				first, err := m1.Submit(wire(808))
				if err != nil {
					t.Fatal(err)
				}
				waitState(t, m1, first.ID, StateRunning)
				if _, err := m1.Submit(wire(809)); err != nil {
					t.Fatal(err)
				}
				img := copyDir(t, dir)
				release()
				shutdown(t, m1)
				return Options{MaxConcurrent: 1, Store: fileStoreOn(t, img)}, recoverable(t, img)
			},
			run: func(t *testing.T, m *Manager) []string {
				awaitAll(t, m)
				return nil
			},
		},
		{
			// The crash image holds a job with chain checkpoints, as in
			// TestCrashResumeParity.
			name: "recovered running",
			prepare: func(t *testing.T) (Options, []JobRecord) {
				dir := t.TempDir()
				m1, _ := openFileManager(t, dir, Options{MaxConcurrent: 1, CheckpointEvery: 1})
				st, err := m1.Submit(longWire(810))
				if err != nil {
					t.Fatal(err)
				}
				waitSpent(t, m1, st.ID, 1500)
				img := copyDir(t, dir)
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				_ = m1.Shutdown(ctx) // abort the original run: only the image lives on
				return Options{MaxConcurrent: 1, CheckpointEvery: 1, Store: fileStoreOn(t, img)}, recoverable(t, img)
			},
			run: func(t *testing.T, m *Manager) []string {
				awaitAll(t, m)
				return nil
			},
		},
		{
			// A queued job whose walker is not in the registry, written
			// to the store as Submit would have written it.
			name: "recovered, walker no longer resolves",
			prepare: func(t *testing.T) (Options, []JobRecord) {
				dir := t.TempDir()
				fs, err := OpenFileStore(dir, FileStoreOptions{})
				if err != nil {
					t.Fatal(err)
				}
				canonical, err := json.Marshal(badWalker)
				if err != nil {
					t.Fatal(err)
				}
				if err := fs.Add(newJob(1, jobID(1, canonical), badWalker, session.Spec{})); err != nil {
					t.Fatal(err)
				}
				if err := fs.Close(); err != nil {
					t.Fatal(err)
				}
				return Options{MaxConcurrent: 1, Store: fileStoreOn(t, dir)}, recoverable(t, dir)
			},
			run: func(t *testing.T, m *Manager) []string {
				jobs := m.List()
				if len(jobs) != 1 || jobs[0].State != StateFailed {
					t.Fatalf("recovered jobs %+v, want one failed", jobs)
				}
				return nil
			},
		},
		{
			// Six finished jobs reopen under StoreLimit 2: boot evicts four.
			name: "restart with a lower StoreLimit",
			prepare: func(t *testing.T) (Options, []JobRecord) {
				dir := t.TempDir()
				m1, _ := openFileManager(t, dir, Options{MaxConcurrent: 1})
				for i := 0; i < 6; i++ {
					st, err := m1.Submit(wire(int64(811 + i)))
					if err != nil {
						t.Fatal(err)
					}
					await(t, m1, st.ID)
				}
				shutdown(t, m1)
				return Options{MaxConcurrent: 1, StoreLimit: 2, Store: fileStoreOn(t, dir)}, recoverable(t, dir)
			},
			run: func(t *testing.T, m *Manager) []string {
				if n := len(m.List()); n != 2 {
					t.Fatalf("%d jobs after boot, want 2", n)
				}
				return nil
			},
		},
		{name: "rejected: bad spec", run: func(t *testing.T, m *Manager) []string {
			if _, err := m.Submit(badWalker); err == nil {
				t.Fatal("bad walker admitted")
			}
			return nil
		}},
		{
			name: "rejected: failing store",
			prepare: func(t *testing.T) (Options, []JobRecord) {
				return Options{MaxConcurrent: 1, Store: failingStore{NewMemStore()}}, nil
			},
			run: func(t *testing.T, m *Manager) []string {
				if _, err := m.Submit(wire(817)); err == nil {
					t.Fatal("failed store write admitted")
				}
				return nil
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{MaxConcurrent: 1}
			var recovered []JobRecord
			if tc.prepare != nil {
				opts, recovered = tc.prepare(t)
			}
			before := scrapeMetrics(t)
			m, _, err := OpenManager(opts)
			if err != nil {
				t.Fatal(err)
			}
			admitted := tc.run(t, m)
			shutdown(t, m)
			after := scrapeMetrics(t)
			delta := func(name string) float64 {
				t.Helper()
				return metricDelta(t, before, after, name)
			}

			boot := map[string]JobRecord{}
			known := map[string]bool{}
			for _, r := range recovered {
				boot[r.ID] = r
				known[r.ID] = true
			}
			for _, id := range admitted {
				known[id] = true
			}
			var events float64
			ended := map[State]float64{}
			for _, st := range m.List() {
				if !st.State.Terminal() {
					t.Errorf("job %s still %s after shutdown", st.ID, st.State)
				}
				delete(known, st.ID) // what stays in known left the catalog
				r, ok := boot[st.ID]
				events += float64(st.Events - r.summary().Events)
				if !ok || !r.State().Terminal() {
					ended[st.State]++
				}
			}
			if got := delta("histwalk_job_events_total"); got != events {
				t.Errorf("job_events_total grew %v, want %v appended events", got, events)
			}
			for _, g := range []string{"histwalk_jobs_queued", "histwalk_jobs_running"} {
				if got := delta(g); got != 0 {
					t.Errorf("%s moved %v over the Manager's life, want 0", g, got)
				}
			}
			for s, name := range map[State]string{
				StateDone:      "histwalk_jobs_done_total",
				StateFailed:    "histwalk_jobs_failed_total",
				StateCancelled: "histwalk_jobs_cancelled_total",
			} {
				if got := delta(name); got != ended[s] {
					t.Errorf("%s grew %v, want %v", name, got, ended[s])
				}
			}
			if got := delta("histwalk_jobs_evicted_total"); got != float64(len(known)) {
				t.Errorf("jobs_evicted_total grew %v, want %d evicted IDs", got, len(known))
			}
			if got := delta("histwalk_jobs_submitted_total"); got != float64(len(admitted)) {
				t.Errorf("jobs_submitted_total grew %v, want %d", got, len(admitted))
			}
		})
	}
}
