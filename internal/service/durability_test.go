package service

// Durability tests: the FileStore's log/snapshot machinery, recovery
// through OpenManager, crash-resume parity and eviction/compaction
// agreement. Crashes are simulated with the crash-image technique:
// copying the store directory of a LIVE manager mid-run is exactly the
// point-in-time byte state a kill -9 would leave (including, at
// unlucky copy instants, a torn final line — which is the corrupt-tail
// path working as designed).

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"histwalk/internal/session"
)

// longWire returns a spec big enough to observe and checkpoint
// mid-run: step-metered budget so runtime is independent of graph
// coverage.
func longWire(seed int64) session.SpecJSON {
	return session.SpecJSON{
		Dataset: "clustered",
		Walker:  "cnrw",
		Budget:  12000,
		Chains:  4,
		Seed:    seed,
		Cost:    "steps",
	}
}

// copyDir snapshots the store directory into a fresh temp dir — the
// crash image. Files are copied in one ReadFile each; racing the live
// appender can capture a partial final line, which recovery must (and
// does) truncate away.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func openFileManager(t *testing.T, dir string, opts Options) (*Manager, *Recovery) {
	t.Helper()
	store, err := OpenFileStore(dir, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = store
	m, rec, err := OpenManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	return m, rec
}

// TestFileStoreRestartHistory: terminal jobs survive a clean restart
// as queryable history — same IDs, states, results, event logs.
func TestFileStoreRestartHistory(t *testing.T) {
	dir := t.TempDir()
	m1, rec := openFileManager(t, dir, Options{MaxConcurrent: 2})
	if rec.Terminal+rec.Requeued+rec.Resumed+rec.Restarted != 0 {
		t.Fatalf("fresh store recovered something: %+v", rec)
	}
	var want []JobStatus
	for i := 0; i < 3; i++ {
		st, err := m1.Submit(wire(int64(300 + i)))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, await(t, m1, st.ID))
	}
	shutdown(t, m1)

	before := scrapeMetrics(t)
	m2, rec2 := openFileManager(t, dir, Options{MaxConcurrent: 2})
	defer shutdown(t, m2)
	if rec2.Terminal != 3 || rec2.Requeued+rec2.Resumed+rec2.Restarted+rec2.Failed != 0 {
		t.Fatalf("recovery = %+v, want 3 terminal", rec2)
	}
	got := m2.List()
	if len(got) != len(want) {
		t.Fatalf("recovered %d jobs, want %d", len(got), len(want))
	}
	for i := range want {
		a, _ := json.Marshal(want[i])
		b, _ := json.Marshal(got[i])
		if string(a) != string(b) {
			t.Fatalf("job %d status changed across restart:\n%s\nvs\n%s", i, a, b)
		}
		// The full event log must replay identically too.
		evs1, _, err := m2.WaitEvents(context.Background(), want[i].ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(evs1) != want[i].Events {
			t.Fatalf("job %d: %d events after restart, want %d", i, len(evs1), want[i].Events)
		}
	}
	// Metrics reflect the recovery.
	recovered := metricDelta(t, before, scrapeMetrics(t), "histwalk_jobs_recovered_total")
	if stored := len(m2.List()); recovered != 3 || stored != 3 {
		t.Fatalf("after recovery: jobs_recovered_total grew %v, %d stored", recovered, stored)
	}
}

// TestCrashResumeParity is the acceptance invariant: a job whose
// process dies mid-run resumes from its last checkpoint on restart and
// finishes with the bit-identical Result of a never-interrupted run.
func TestCrashResumeParity(t *testing.T) {
	dir := t.TempDir()
	m1, _ := openFileManager(t, dir, Options{MaxConcurrent: 1, CheckpointEvery: 1})
	w := longWire(907)
	st, err := m1.Submit(w)
	if err != nil {
		t.Fatal(err)
	}
	// Let the job run until several checkpoints are surely on disk.
	waitSpent(t, m1, st.ID, 1500)
	img := copyDir(t, dir) // the kill -9 moment

	m2, rec := openFileManager(t, img, Options{MaxConcurrent: 1, CheckpointEvery: 1})
	defer shutdown(t, m2)
	if rec.Resumed != 1 {
		t.Fatalf("recovery = %+v, want exactly one resumed job", rec)
	}
	resumed := await(t, m2, st.ID)
	if resumed.State != StateDone {
		t.Fatalf("resumed job: %s (%s)", resumed.State, resumed.Error)
	}

	// Reference: an uninterrupted direct run of the same resolved spec.
	spec, err := w.Spec()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := session.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.Result, direct) {
		t.Fatalf("resumed Result differs from uninterrupted direct Run:\n%+v\nvs\n%+v", resumed.Result, direct)
	}
	// And from the never-killed manager's own outcome.
	orig := await(t, m1, st.ID)
	shutdown(t, m1)
	if !reflect.DeepEqual(resumed.Result, orig.Result) {
		t.Fatal("resumed Result differs from the uninterrupted manager run")
	}

	// The resumed job's per-chain event stream must stay monotone in
	// Spent across the restart boundary (no re-emitted milestones).
	evs, _, err := m2.WaitEvents(context.Background(), st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	lastSpent := map[int]int{}
	running := 0
	for _, ev := range evs {
		if ev.Type == "state" && ev.State == StateRunning {
			running++
		}
		if ev.Chain != nil {
			if ev.Chain.Spent < lastSpent[ev.Chain.Chain] {
				t.Fatalf("chain %d spent went backward across restart: %d < %d",
					ev.Chain.Chain, ev.Chain.Spent, lastSpent[ev.Chain.Chain])
			}
			lastSpent[ev.Chain.Chain] = ev.Chain.Spent
		}
	}
	if running != 2 {
		t.Fatalf("want 2 running events (original + resume marker), got %d", running)
	}
	// Beyond monotone: every event the resumed job logged, running
	// estimates included, is the never-killed run's.
	sameEvents(t, evs, allEvents(t, m1, st.ID))
}

// allEvents returns every event a job has logged so far.
func allEvents(t *testing.T, m *Manager, id string) []Event {
	t.Helper()
	evs, _, err := m.WaitEvents(context.Background(), id, 0)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// sameEvents requires a restarted job's events to be the never-killed
// run's (want) plus the "running" event that marks the restart: the
// same types, states, chain progress, running estimates and Result, in
// the same order.
func sameEvents(t *testing.T, got, want []Event) {
	t.Helper()
	render := func(evs []Event) []string {
		out := make([]string, len(evs))
		for i, ev := range evs {
			ev.Seq = 0
			b, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = string(b)
		}
		return out
	}
	g, w := render(got), render(want)
	restart := -1
	for i, ev := range got {
		if ev.Type == "state" && ev.State == StateRunning && i > 1 {
			restart = i
			break
		}
	}
	if restart < 0 {
		t.Fatal("the restarted job logged no second running event")
	}
	g = append(g[:restart:restart], g[restart+1:]...)
	if len(g) != len(w) {
		t.Fatalf("restarted job logged %d events besides the restart marker, the uninterrupted run %d", len(g), len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("event %d (restart marker at %d) differs from the uninterrupted run's:\n%s\nvs\n%s", i, restart, g[i], w[i])
		}
	}
}

// TestStoreRecoveredProgressMatchesUninterrupted restarts a running job
// from a crash image on the two recovery paths that rerun it from
// scratch: no checkpoint was written yet, or its checkpoint fails
// verification (a tampered digest). Either way the restarted job must
// log exactly the never-killed run's events after the restart marker:
// no milestone the log already holds is emitted again, and every
// running estimate agrees.
func TestStoreRecoveredProgressMatchesUninterrupted(t *testing.T) {
	for _, tc := range []struct {
		name   string
		every  int // CheckpointEvery
		tamper bool
	}{
		{"no checkpoint", 1 << 20, false},
		{"tampered checkpoint", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{MaxConcurrent: 1, CheckpointEvery: tc.every}
			m1, _ := openFileManager(t, dir, opts)
			st, err := m1.Submit(longWire(811))
			if err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
				cur, err := m1.Get(st.ID)
				if err != nil {
					t.Fatal(err)
				}
				if cur.Events >= 12 {
					break
				}
				if cur.State.Terminal() || time.Now().After(deadline) {
					t.Fatalf("job reached %d events in state %s, want a running job with 12", cur.Events, cur.State)
				}
			}
			img := copyDir(t, dir) // the kill -9 moment
			await(t, m1, st.ID)
			want := allEvents(t, m1, st.ID)
			shutdown(t, m1)
			if tc.tamper {
				tamperCheckpoint(t, img, st.ID)
			}

			before := scrapeMetrics(t)
			m2, rec := openFileManager(t, img, opts)
			defer shutdown(t, m2)
			if rec.Resumed+rec.Restarted != 1 {
				t.Fatalf("recovery = %+v, want one running job", rec)
			}
			if fin := await(t, m2, st.ID); fin.State != StateDone {
				t.Fatalf("restarted job: %s (%s)", fin.State, fin.Error)
			}
			if tc.tamper {
				if n := metricDelta(t, before, scrapeMetrics(t), "histwalk_resume_fallbacks_total"); n != 1 {
					t.Fatalf("resume fallbacks grew by %v, want 1", n)
				}
			}
			sameEvents(t, allEvents(t, m2, st.ID), want)
		})
	}
}

// tamperCheckpoint appends a checkpoint for job id to the store in dir
// whose chain 0 digest no longer matches its samples, so resuming from
// it fails verification.
func tamperCheckpoint(t *testing.T, dir, id string) {
	t.Helper()
	fs, err := OpenFileStore(dir, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := fs.Recover()
	if err != nil {
		t.Fatal(err)
	}
	var cp *session.Checkpoint
	for _, r := range recs {
		if r.ID == id {
			cp = r.Checkpoint
		}
	}
	if cp == nil {
		t.Fatalf("the crash image holds no checkpoint of %s", id)
	}
	bad := session.Checkpoint{Chains: append([]session.ChainCheckpoint(nil), cp.Chains...)}
	bad.Chains[0].Digest = strings.Repeat("0", 16)
	if err := fs.RecordCheckpoint(id, &bad); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
}

// waitSpent polls until some chain of the job has spent at least n.
func waitSpent(t *testing.T, m *Manager, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range st.Chains {
			if c.Spent >= n {
				return
			}
		}
		if st.State.Terminal() {
			t.Fatalf("job finished before reaching spent %d", n)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached spent %d", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueuedJobsReadmitInOrder: jobs still queued at the crash re-enter
// the queue in original admission order and run to completion.
func TestQueuedJobsReadmitInOrder(t *testing.T) {
	dir := t.TempDir()
	m1, _ := openFileManager(t, dir, Options{MaxConcurrent: 1})
	release := installHold(m1)
	// One job occupies the single worker; the rest stay queued.
	first, err := m1.Submit(wire(400))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, first.ID, StateRunning)
	var queued []string
	for i := 0; i < 3; i++ {
		st, err := m1.Submit(wire(int64(401 + i)))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, st.ID)
	}
	img := copyDir(t, dir)
	release()
	shutdown(t, m1)

	m2, rec := openFileManager(t, img, Options{MaxConcurrent: 1})
	defer shutdown(t, m2)
	if rec.Requeued != 3 {
		t.Fatalf("recovery = %+v, want 3 requeued", rec)
	}
	// All queued jobs finish, and List preserves admission order.
	for _, id := range queued {
		if st := await(t, m2, id); st.State != StateDone {
			t.Fatalf("requeued job %s: %s (%s)", id, st.State, st.Error)
		}
	}
	var orderedIDs []string
	for _, st := range m2.List() {
		orderedIDs = append(orderedIDs, st.ID)
	}
	want := append([]string{first.ID}, queued...)
	if !reflect.DeepEqual(orderedIDs, want) {
		t.Fatalf("admission order not preserved: %v vs %v", orderedIDs, want)
	}
}

// TestCorruptTailTruncation: a torn final append (partial line, bad
// CRC) costs exactly that line; everything before it recovers.
func TestCorruptTailTruncation(t *testing.T) {
	dir := t.TempDir()
	m1, _ := openFileManager(t, dir, Options{MaxConcurrent: 1})
	st, err := m1.Submit(wire(555))
	if err != nil {
		t.Fatal(err)
	}
	done := await(t, m1, st.ID)
	if done.State != StateDone {
		t.Fatalf("job: %s", done.State)
	}
	// Shut down WITHOUT compaction by copying the live dir first.
	img := copyDir(t, dir)
	shutdown(t, m1)

	logPath := filepath.Join(img, logName)
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A CRC-valid prefix followed by garbage and a torn half-line.
	fmt.Fprintf(f, "deadbeef {\"k\":\"event\"}\n00000000 not json\nffffffff {\"k\":\"cp\"")
	f.Close()

	m2, rec := openFileManager(t, img, Options{MaxConcurrent: 1})
	defer shutdown(t, m2)
	if rec.Terminal != 1 {
		t.Fatalf("recovery = %+v, want 1 terminal", rec)
	}
	got, err := m2.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || !reflect.DeepEqual(got.Result, done.Result) {
		t.Fatal("job state or result corrupted by torn tail")
	}
	// The corrupt tail was physically truncated.
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, valid := decodeLog(data); valid != len(data) {
		t.Fatalf("log still has %d bytes of corrupt tail", len(data)-valid)
	}
}

// TestEvictionCompactionAgreement: the Manager's store eviction and the
// FileStore's compaction decide survival through the same policy, so a
// restart reloads exactly the jobs the live manager kept.
func TestEvictionCompactionAgreement(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenFileStore(dir, FileStoreOptions{CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := scrapeMetrics(t)
	m1, _, err := OpenManager(Options{MaxConcurrent: 1, StoreLimit: 3, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		st, err := m1.Submit(wire(int64(600 + i)))
		if err != nil {
			t.Fatal(err)
		}
		await(t, m1, st.ID)
	}
	var kept []string
	for _, st := range m1.List() {
		kept = append(kept, st.ID)
	}
	if len(kept) > 4 { // limit 3 + at most one live in flight at submit time
		t.Fatalf("manager kept %d jobs with StoreLimit 3", len(kept))
	}
	if metricDelta(t, before, scrapeMetrics(t), "histwalk_jobs_evicted_total") == 0 {
		t.Fatal("no evictions with StoreLimit 3 and 8 jobs")
	}
	shutdown(t, m1)

	m2, rec := openFileManager(t, dir, Options{MaxConcurrent: 1, StoreLimit: 3})
	defer shutdown(t, m2)
	var reloaded []string
	for _, st := range m2.List() {
		reloaded = append(reloaded, st.ID)
	}
	// Close-time compaction applies the same evictVictims policy the
	// live manager used — by then the final job is terminal too, so the
	// durable catalog is exactly the StoreLimit newest of what the live
	// manager kept.
	if rec.Terminal != 3 {
		t.Fatalf("recovery = %+v, want 3 terminal", rec)
	}
	if want := kept[len(kept)-3:]; !reflect.DeepEqual(reloaded, want) {
		t.Fatalf("restart reloaded %v, eviction policy kept %v", reloaded, want)
	}
}

// TestCompactionPreservesRecords: aggressive compaction (every append
// triggers it) must not lose or reorder anything.
func TestCompactionPreservesRecords(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenFileStore(dir, FileStoreOptions{CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	m1, _, err := OpenManager(Options{MaxConcurrent: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	var want []JobStatus
	for i := 0; i < 4; i++ {
		st, err := m1.Submit(wire(int64(700 + i)))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, await(t, m1, st.ID))
	}
	shutdown(t, m1)
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("no snapshot after compaction: %v", err)
	}
	m2, rec := openFileManager(t, dir, Options{MaxConcurrent: 2})
	defer shutdown(t, m2)
	if rec.Terminal != 4 {
		t.Fatalf("recovery = %+v, want 4 terminal", rec)
	}
	for i, st := range m2.List() {
		a, _ := json.Marshal(want[i])
		b, _ := json.Marshal(st)
		if string(a) != string(b) {
			t.Fatalf("job %d differs after compacted restart:\n%s\nvs\n%s", i, a, b)
		}
	}
}

// FuzzEventLogDecode hammers the log decoder with arbitrary bytes: it
// must never panic, must report a valid prefix no longer than the
// input, and must be prefix-stable (re-decoding the valid prefix
// yields the same records and consumes all of it).
func FuzzEventLogDecode(f *testing.F) {
	var seed []byte
	seed = encodeRec(seed, []byte(`{"k":"submit","id":"j1","seq":1}`))
	seed = encodeRec(seed, []byte(`{"k":"event","id":"j1","ev":{"seq":1,"type":"state","state":"queued"}}`))
	seed = encodeRec(seed, []byte(`{"k":"end","n":1}`))
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte("deadbeef {\"k\":\"evict\",\"id\":\"x\"}\n"))
	f.Add(append(append([]byte{}, seed...), "ffffffff {\"k\":"...))
	f.Add([]byte("00000000 \n12345678 {}\nnot a line at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid := decodeLog(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d out of range [0,%d]", valid, len(data))
		}
		recs2, valid2 := decodeLog(data[:valid])
		if valid2 != valid || len(recs2) != len(recs) {
			t.Fatalf("decode not prefix-stable: (%d recs, %d bytes) vs (%d recs, %d bytes)",
				len(recs), valid, len(recs2), valid2)
		}
		// Applying arbitrary decoded records must never panic either.
		fs := &FileStore{recs: make(map[string]*JobRecord)}
		fs.apply(recs)
	})
}
