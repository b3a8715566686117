//go:build linux

package service

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
)

// tornImageEnv names the directory a TestStoreTornAppendKeepsLaterRecords
// child writes its crash image and expectations into.
const tornImageEnv = "HISTWALK_TORN_APPEND_DIR"

// tornWant is what the child saw live: the job whose log append tore,
// and the job that then ran to done with its event log.
type tornWant struct {
	Torn   string          `json:"torn"`
	Done   string          `json:"done"`
	Events json.RawMessage `json:"events"`
}

// TestStoreTornAppendKeepsLaterRecords: a log write that fails part-way
// must not cost the records appended after it. A child process of the
// test binary lowers its own RLIMIT_FSIZE so that a running job's
// "cancelled" record is written in part and fails, raises it again,
// runs a second job to done and copies the store directory as a
// kill -9 would leave it. Opening that copy must recover the second
// job as done with every event it logged.
func TestStoreTornAppendKeepsLaterRecords(t *testing.T) {
	if base := os.Getenv(tornImageEnv); base != "" {
		tornAppendChild(t, base)
		return
	}
	base := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestStoreTornAppendKeepsLaterRecords$", "-test.count=1")
	cmd.Env = append(os.Environ(), tornImageEnv+"="+base)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(filepath.Join(base, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want tornWant
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	store, err := OpenFileStore(filepath.Join(base, "image"), FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	recs, err := store.Recover()
	if err != nil {
		t.Fatal(err)
	}
	states := map[string]State{}
	for i := range recs {
		states[recs[i].ID] = recs[i].State()
	}
	if got, ok := states[want.Done]; !ok || got != StateDone {
		t.Fatalf("recovered jobs %v: want %s done", states, want.Done)
	}
	evs, err := store.Events(want.Done, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(evs)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want.Events) {
		t.Fatalf("recovered events of %s:\n%s\nwant\n%s", want.Done, got, want.Events)
	}
	// The torn job's "cancelled" record never reached the log, so the
	// crash image holds it as it was before: running.
	if got := states[want.Torn]; got != StateRunning {
		t.Fatalf("torn job %s recovered %s, want running", want.Torn, got)
	}
}

// tornAppendChild is the child half: it tears one append, finishes a
// second job, and leaves the crash image and what it saw under base.
func tornAppendChild(t *testing.T, base string) {
	dir := t.TempDir()
	m, _ := openFileManager(t, dir, Options{MaxConcurrent: 1})
	store := m.store.(*FileStore)
	release := installHold(m)
	torn, err := m.Submit(wire(1900))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, torn.ID, StateRunning) // its running event is logged

	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	store.mu.Lock()
	end := uint64(store.logBytes)
	store.mu.Unlock()
	// Files may grow 20 bytes past the log's end: the cancelled
	// record's write stops there and fails with EFBIG (Go ignores
	// SIGXFSZ).
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: end + 20, Max: lim.Max}); err != nil {
		t.Fatal(err)
	}
	errs := scrapeMetrics(t)["histwalk_store_errors_total"]
	if _, err := m.Cancel(torn.ID); err != nil {
		t.Fatal(err)
	}
	await(t, m, torn.ID)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	if n := scrapeMetrics(t)["histwalk_store_errors_total"] - errs; n != 1 {
		t.Fatalf("histwalk_store_errors_total grew by %v, want 1 for the torn append", n)
	}

	release()
	done, err := m.Submit(wire(1901))
	if err != nil {
		t.Fatal(err)
	}
	if st := await(t, m, done.ID); st.State != StateDone {
		t.Fatalf("job %s ended %s: %s", done.ID, st.State, st.Error)
	}
	evs, err := store.Events(done.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(evs)
	if err != nil {
		t.Fatal(err)
	}
	// Copy the directory before any shutdown compaction, as kill -9
	// would leave it.
	if err := os.Rename(copyDir(t, dir), filepath.Join(base, "image")); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(tornWant{Torn: torn.ID, Done: done.ID, Events: raw})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(base, "want.json"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	shutdown(t, m)
}
