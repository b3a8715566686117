package service

// Tests of the FileStore's segment layout: crash images around one
// compaction, migration from the single-snapshot layout, the
// write-once discipline, and corruption of committed files.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"histwalk/internal/session"
)

// segmentFiles lists the segment files of a store directory, sorted.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "segment-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		names[i] = filepath.Base(names[i])
	}
	slices.Sort(names)
	return names
}

// recoveredView opens a copy of a store directory and renders every
// recovered job as a restart would serve it, keyed by job ID: status
// JSON (Result included), then the event list.
func recoveredView(t *testing.T, dir string) map[string]string {
	t.Helper()
	store, err := OpenFileStore(copyDir(t, dir), FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	recs, err := store.Recover()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(recs))
	for i := range recs {
		j := jobFromRecord(&recs[i])
		st, err := json.Marshal(j.status())
		if err != nil {
			t.Fatal(err)
		}
		log := j.events
		if log == nil { // a sealed job's events stay in its segment
			if log, err = store.Events(j.id, 0); err != nil {
				t.Fatal(err)
			}
		}
		evs, err := json.Marshal(log)
		if err != nil {
			t.Fatal(err)
		}
		out[j.id] = string(st) + "\n" + string(evs)
	}
	return out
}

// TestStoreCrashImages copies the store directory just before and just
// after one compaction, while a long job keeps appending, and rebuilds
// the directory a crash between each pair of compaction steps would
// leave. Every state must recover the catalog the finished compaction
// recovers. A job that the old manifest lists as running keeps its
// sealed record even when the log is lost, as after a machine crash
// (the log is not fsynced; segments are).
func TestStoreCrashImages(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenFileStore(dir, FileStoreOptions{CompactBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := OpenManager(Options{MaxConcurrent: 2, StoreLimit: 5, ProgressTicks: 1000, CheckpointEvery: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, m)
	compact := func() {
		t.Helper()
		store.mu.Lock()
		defer store.mu.Unlock()
		if err := store.compactLocked(); err != nil {
			t.Fatal(err)
		}
	}
	submit := func(w session.SpecJSON) string {
		t.Helper()
		st, err := m.Submit(w)
		if err != nil {
			t.Fatal(err)
		}
		return st.ID
	}
	run := func(seed int64) {
		t.Helper()
		id := submit(wire(seed))
		if fin := await(t, m, id); fin.State != StateDone {
			t.Fatalf("job %s ended %s", id, fin.State)
		}
	}
	run(1001)
	run(1002)
	run(1003)
	compact() // segment 1: three jobs
	run(1004)
	run(1005)
	compact() // segment 2: two jobs
	// The long job appends throughout. Each later admission evicts the
	// oldest terminal job, with a log record, until segment 1 is dead;
	// the catalog stays at the limit, so compaction evicts nothing new.
	lw := longWire(1006)
	lw.Budget = 20_000_000
	long := submit(lw)
	waitSpent(t, m, long, 1)
	release := installHold(m)
	held := submit(wire(1007))
	waitState(t, m, held, StateRunning)
	compact() // the manifest lists the held job as running
	release()
	await(t, m, held)
	run(1008)

	var img0, img1 string
	func() {
		store.mu.Lock()
		defer store.mu.Unlock()
		img0 = copyDir(t, dir)
		if err := store.compactLocked(); err != nil {
			t.Fatal(err)
		}
		img1 = copyDir(t, dir)
	}()
	if _, err := m.Cancel(long); err != nil {
		t.Fatal(err)
	}
	await(t, m, long)

	before, after := segmentFiles(t, img0), segmentFiles(t, img1)
	var added, deleted []string
	for _, s := range after {
		if !slices.Contains(before, s) {
			added = append(added, s)
		}
	}
	for _, s := range before {
		if !slices.Contains(after, s) {
			deleted = append(deleted, s)
		}
	}
	if len(added) != 1 || len(deleted) != 1 {
		t.Fatalf("segments %v → %v: want one new segment and one deleted", before, after)
	}
	recs, err := readCommitted(filepath.Join(img1, added[0]))
	if err != nil {
		t.Fatal(err)
	}
	var fresh []string
	for _, r := range recs {
		fresh = append(fresh, r.Job.ID)
	}
	if !slices.Contains(fresh, held) {
		t.Fatalf("new segment holds %v, not the held job %s", fresh, held)
	}

	write := func(dir, name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	newSeg, err := os.ReadFile(filepath.Join(img1, added[0]))
	if err != nil {
		t.Fatal(err)
	}
	oldLog, err := os.ReadFile(filepath.Join(img0, logName))
	if err != nil {
		t.Fatal(err)
	}
	// After step 2: img0 plus the new segment.
	sealed := copyDir(t, img0)
	write(sealed, added[0], newSeg)
	// After step 3: the same, minus the deleted segment.
	pruned := copyDir(t, sealed)
	if err := os.Remove(filepath.Join(pruned, deleted[0])); err != nil {
		t.Fatal(err)
	}
	// After step 4: img1's segments and manifest with img0's log.
	manifested := copyDir(t, img1)
	write(manifested, logName, oldLog)
	// After step 2, with the unsynced log lost.
	logless := copyDir(t, sealed)
	write(logless, logName, nil)

	want := recoveredView(t, img1)
	if len(want) != 5 {
		t.Fatalf("img1 recovers %d jobs, want the 5 the store limit keeps", len(want))
	}
	if !strings.Contains(want[long], `"state":"running"`) {
		t.Fatalf("the long job is not live in img1: %.200s", want[long])
	}
	for _, c := range []struct{ name, dir string }{
		{"before step 2 (img0)", img0},
		{"after step 2", sealed},
		{"after step 3", pruned},
		{"after step 4", manifested},
	} {
		got := recoveredView(t, c.dir)
		if len(got) != len(want) {
			t.Fatalf("%s: recovered %d jobs, img1 %d", c.name, len(got), len(want))
		}
		for id, w := range want {
			if got[id] != w {
				t.Fatalf("%s: job %s differs from img1:\n%.300s\nvs\n%.300s", c.name, id, got[id], w)
			}
		}
	}
	got := recoveredView(t, logless)
	for _, id := range fresh {
		if got[id] != want[id] {
			t.Fatalf("after step 2 without the log: sealed job %s differs from img1:\n%.300s\nvs\n%.300s", id, got[id], want[id])
		}
	}
}

// v1Served is what a daemon served for every job of a store:
// the GET /v1/jobs body, and each job's GET body and SSE byte stream.
type v1Served struct {
	List string      `json:"list"`
	Jobs []servedJob `json:"jobs"`
}

// servedJob is one job's GET /v1/jobs/{id} body and SSE byte stream.
type servedJob struct {
	ID  string `json:"id"`
	Get string `json:"get"`
	SSE string `json:"sse"`
}

// httpBody GETs url and returns the body, which must come with a 200.
func httpBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	return string(b)
}

// serveStore boots a manager on dir, lets every recovered job finish,
// records what it serves and shuts it down, which compacts the store.
func serveStore(t *testing.T, dir string) v1Served {
	t.Helper()
	store, err := OpenFileStore(dir, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := OpenManager(Options{MaxConcurrent: 1, ProgressTicks: 4, CheckpointEvery: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	for _, st := range m.List() {
		await(t, m, st.ID)
	}
	out := v1Served{List: httpBody(t, srv.URL+"/v1/jobs")}
	for _, st := range m.List() {
		out.Jobs = append(out.Jobs, servedJob{
			ID:  st.ID,
			Get: httpBody(t, srv.URL+"/v1/jobs/"+st.ID),
			SSE: httpBody(t, srv.URL+"/v1/jobs/"+st.ID+"/events"),
		})
	}
	shutdown(t, m)
	return out
}

// TestStoreMigratesV1 boots on testdata/v1store, a crash image that the
// single-snapshot layout (commit c25f414) wrote: its snapshot lists a
// done, a failed and a cancelled job, a running job with a checkpoint
// and a queued job, and its log holds the running job's later events.
// testdata/v1store-served.json holds every GET body and SSE stream
// that code served after booting on the image, with the options below,
// once every job had finished. Booting on the image must serve the
// same bytes, and so must a second boot, after a compaction that
// sealed every job.
func TestStoreMigratesV1(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "v1store-served.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want v1Served
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	image, err := OpenFileStore(copyDir(t, filepath.Join("testdata", "v1store")), FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := image.Recover()
	if err != nil {
		t.Fatal(err)
	}
	image.Close()
	var states []string
	for _, r := range recs {
		states = append(states, fmt.Sprintf("%s/%v", r.State(), r.Checkpoint != nil))
	}
	if got := strings.Join(states, " "); got != "done/true failed/false cancelled/true running/true queued/false" {
		t.Fatalf("testdata/v1store holds %s (state/checkpoint)", got)
	}
	compare := func(label string, got v1Served) {
		t.Helper()
		if got.List != want.List {
			t.Fatalf("%s: GET /v1/jobs differs:\n%s\nvs\n%s", label, got.List, want.List)
		}
		if len(got.Jobs) != len(want.Jobs) {
			t.Fatalf("%s: %d jobs, want %d", label, len(got.Jobs), len(want.Jobs))
		}
		for i, w := range want.Jobs {
			g := got.Jobs[i]
			if g.ID != w.ID || g.Get != w.Get {
				t.Fatalf("%s: GET /v1/jobs/%s differs:\n%s\nvs\n%s", label, w.ID, g.Get, w.Get)
			}
			if g.SSE != w.SSE {
				t.Fatalf("%s: SSE stream of %s differs:\n%s\nvs\n%s", label, w.ID, g.SSE, w.SSE)
			}
		}
	}
	dir := copyDir(t, filepath.Join("testdata", "v1store"))
	compare("first boot", serveStore(t, dir))

	manifest, err := readCommitted(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range manifest {
		if r.Kind == "job" && r.Job.State().Terminal() {
			t.Fatalf("manifest still lists terminal job %s", r.Job.ID)
		}
	}
	if len(segmentFiles(t, dir)) == 0 {
		t.Fatal("the shutdown compaction wrote no segment")
	}
	compare("second boot", serveStore(t, dir))
}

// TestStoreMigratesV2 boots on testdata/v2store, a crash image that the
// segment layout wrote before segments held summary records (commit
// dca975f). Its two segments seal a done job, a failed one, one
// cancelled while running, a pipelined done job and a GNRW job with two
// estimators; its manifest holds an evict tombstone for the first job, a
// running job with a checkpoint and a queued job; its log holds the
// running job's later events and checkpoints. testdata/v2store-served.json
// holds every GET body and SSE stream that code served after booting on
// the image, with serveStore's options, once every job had finished.
// Booting on the image must serve the same bytes, and so must a second
// boot, after the shutdown compaction sealed the last two jobs into a
// third segment beside the old two.
func TestStoreMigratesV2(t *testing.T) {
	src := filepath.Join("testdata", "v2store")
	raw, err := os.ReadFile(filepath.Join("testdata", "v2store-served.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want v1Served
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	manifest, err := readCommitted(filepath.Join(src, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	tombs := 0
	for _, r := range manifest {
		if r.Kind == "evict" {
			tombs++
		}
	}
	if segs := segmentFiles(t, src); len(segs) != 2 || tombs != 1 {
		t.Fatalf("testdata/v2store holds segments %v and %d tombstones, want 2 and 1", segs, tombs)
	}
	image, err := OpenFileStore(copyDir(t, src), FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := image.Recover()
	if err != nil {
		t.Fatal(err)
	}
	image.Close()
	var states []string
	for _, r := range recs {
		s := string(r.State())
		if !r.State().Terminal() {
			s += fmt.Sprintf("/%v", r.Checkpoint != nil)
		}
		states = append(states, s)
	}
	if got := strings.Join(states, " "); got != "failed cancelled done done running/true queued/false" {
		t.Fatalf("testdata/v2store holds %s (state, /checkpoint when live)", got)
	}
	dir := copyDir(t, src)
	sameServed(t, "first boot", serveStore(t, dir), want)
	if segs := segmentFiles(t, dir); len(segs) != 3 {
		t.Fatalf("after the shutdown compaction: segments %v, want the old two and a new one", segs)
	}
	sameServed(t, "second boot", serveStore(t, dir), want)
}

// sameServed fails unless a daemon served exactly want's bodies.
func sameServed(t *testing.T, label string, got, want v1Served) {
	t.Helper()
	if got.List != want.List {
		t.Fatalf("%s: GET /v1/jobs differs:\n%s\nvs\n%s", label, got.List, want.List)
	}
	if len(got.Jobs) != len(want.Jobs) {
		t.Fatalf("%s: %d jobs, want %d", label, len(got.Jobs), len(want.Jobs))
	}
	for i, w := range want.Jobs {
		g := got.Jobs[i]
		if g.ID != w.ID || g.Get != w.Get {
			t.Fatalf("%s: GET /v1/jobs/%s differs:\n%s\nvs\n%s", label, w.ID, g.Get, w.Get)
		}
		if g.SSE != w.SSE {
			t.Fatalf("%s: SSE stream of %s differs:\n%s\nvs\n%s", label, w.ID, g.SSE, w.SSE)
		}
	}
}

// TestStoreWriteOnce runs jobs under a compaction per append and a
// store limit of 3, and checks the layout after each job: no job is in
// two segment files, no segment's bytes change after its rename, the
// manifest holds no terminal job, and no segment whose jobs are all
// evicted survives. After Recover, the FileStore keeps no decoded
// record for a sealed job.
func TestStoreWriteOnce(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenFileStore(dir, FileStoreOptions{CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := OpenManager(Options{MaxConcurrent: 2, StoreLimit: 3, ProgressTicks: 4, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	segBytes := map[string][]byte{} // every segment seen, by file name
	owner := map[string]string{}    // job ID → the segment that sealed it
	check := func(fs *FileStore) {
		t.Helper()
		fs.mu.Lock()
		defer fs.mu.Unlock()
		manifest, err := readCommitted(filepath.Join(dir, snapshotName))
		if err != nil {
			t.Fatal(err)
		}
		tombs := map[string]bool{}
		for _, r := range manifest {
			switch {
			case r.Kind == "evict":
				tombs[r.ID] = true
			case r.Kind == "job" && r.Job.State().Terminal():
				t.Fatalf("manifest holds terminal job %s", r.Job.ID)
			}
		}
		for _, name := range segmentFiles(t, dir) {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if old, ok := segBytes[name]; ok && !bytes.Equal(old, data) {
				t.Fatalf("segment %s changed after its rename", name)
			}
			segBytes[name] = data
			recs, err := readCommitted(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			alive := false
			for _, r := range recs {
				if prev, ok := owner[r.Job.ID]; ok && prev != name {
					t.Fatalf("job %s sealed in %s and %s", r.Job.ID, prev, name)
				}
				owner[r.Job.ID] = name
				alive = alive || !tombs[r.Job.ID]
			}
			if !alive {
				t.Fatalf("segment %s outlived the compaction after its last eviction", name)
			}
		}
	}
	for i := 0; i < 12; i++ {
		a, err := m.Submit(wire(int64(1100 + 2*i)))
		if err != nil {
			t.Fatal(err)
		}
		w := wire(int64(1101 + 2*i))
		if i%3 == 0 {
			w.Estimators = []session.EstimatorJSON{{Kind: "mean", Attr: "no_such_attr"}}
		}
		b, err := m.Submit(w)
		if err != nil {
			t.Fatal(err)
		}
		await(t, m, a.ID)
		await(t, m, b.ID)
		check(store)
	}
	shutdown(t, m)
	check(store)
	if len(owner) < 10 {
		t.Fatalf("only %d jobs were sealed", len(owner))
	}

	store2, err := OpenFileStore(dir, FileStoreOptions{CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	m2, rec, err := OpenManager(Options{StoreLimit: 3, Store: store2})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, m2)
	if rec.Terminal != 3 {
		t.Fatalf("recovery = %+v, want the 3 jobs the limit keeps", rec)
	}
	func() {
		store2.mu.Lock()
		defer store2.mu.Unlock()
		if len(store2.sealed) != 3 {
			t.Fatalf("%d sealed jobs indexed, want 3", len(store2.sealed))
		}
		for id := range store2.sealed {
			if _, ok := store2.recs[id]; ok {
				t.Fatalf("sealed job %s still has a decoded record after Recover", id)
			}
		}
	}()
	// A later Recover reads the sealed records back from their segments.
	again, err := store2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	live := m2.List()
	if len(again) != len(live) {
		t.Fatalf("second Recover: %d records, want %d", len(again), len(live))
	}
	for i := range again {
		if n := again[i].summary().Events; again[i].ID != live[i].ID || n != live[i].Events {
			t.Fatalf("second Recover: record %d is %s with %d events, want %s with %d",
				i, again[i].ID, n, live[i].ID, live[i].Events)
		}
	}
}

// replaySSE serves one job's event stream through h and returns the
// response code and body.
func replaySSE(h http.Handler, id string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+id+"/events", nil))
	return rec.Code, rec.Body.String()
}

// openFDs counts the process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open files: %v", err)
	}
	return len(ents)
}

// TestStoreSealedReplayRacesEviction replays the SSE streams of sealed
// jobs, whose events a restarted daemon reads from their segment, from
// several goroutines while submissions evict those jobs and compaction
// deletes their segment. Each replay must be the job's complete
// stream, byte-identical to the one served before the restart, or a
// 404, or an empty stream; and no segment file may be left open.
func TestStoreSealedReplayRacesEviction(t *testing.T) {
	openFDs(t)
	const sealedJobs = 6
	dir := t.TempDir()
	m1, _ := openFileManager(t, dir, Options{MaxConcurrent: 2})
	h1 := NewHandler(m1)
	var ids []string
	for i := 0; i < sealedJobs; i++ {
		st, err := m1.Submit(wire(int64(1300 + i)))
		if err != nil {
			t.Fatal(err)
		}
		await(t, m1, st.ID)
		ids = append(ids, st.ID)
	}
	streams := map[string]string{}
	for _, id := range ids {
		code, body := replaySSE(h1, id)
		if code != http.StatusOK || body == "" {
			t.Fatalf("SSE of %s before the restart: %d, %d bytes", id, code, len(body))
		}
		streams[id] = body
	}
	shutdown(t, m1) // seals the six jobs into one segment
	segs := segmentFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("segments %v, want one", segs)
	}

	store, err := OpenFileStore(dir, FileStoreOptions{CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := OpenManager(Options{MaxConcurrent: 1, StoreLimit: sealedJobs, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, m2)
	h2 := NewHandler(m2)
	before := openFDs(t)
	var (
		wg, ready      sync.WaitGroup
		stop           = make(chan struct{})
		complete, gone atomic.Int64
	)
	replay := func(id string) (evicted bool) {
		switch code, body := replaySSE(h2, id); {
		case code == http.StatusOK && body == streams[id]:
			complete.Add(1)
		case code == http.StatusNotFound || code == http.StatusOK && body == "":
			gone.Add(1)
			return true
		default:
			t.Errorf("replay of %s: %d with %d bytes, want its %d-byte stream, a 404 or an empty stream",
				id, code, len(body), len(streams[id]))
			return true
		}
		return false
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			// One replay of every job before the evictions start, then
			// replays of the jobs not yet seen evicted.
			for _, id := range ids {
				replay(id)
			}
			ready.Done()
			evicted := map[string]bool{}
			for i := g; len(evicted) < len(ids); i++ {
				select {
				case <-stop:
					return
				default:
				}
				if id := ids[i%len(ids)]; !evicted[id] {
					evicted[id] = replay(id)
				}
			}
		}()
	}
	stopReplays := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer stopReplays() // on a failure below
	// Each admission evicts the oldest sealed job, and the compaction
	// after the last eviction deletes the segment. The new jobs stay
	// live, parked or queued, so few appends compete with the replays.
	ready.Wait()
	installHold(m2)
	var fresh []string
	for i := 0; i < sealedJobs; i++ {
		st, err := m2.Submit(wire(int64(1400 + i)))
		if err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, st.ID)
	}
	for _, id := range fresh {
		if _, err := m2.Cancel(id); err != nil {
			t.Fatal(err)
		}
		await(t, m2, id)
	}
	stopReplays()
	if _, err := os.Stat(filepath.Join(dir, segs[0])); !os.IsNotExist(err) {
		t.Fatalf("segment %s outlived its jobs: %v", segs[0], err)
	}
	for _, id := range ids {
		if code, _ := replaySSE(h2, id); code != http.StatusNotFound {
			t.Fatalf("replay of evicted job %s: %d, want 404", id, code)
		}
	}
	if after := openFDs(t); after != before {
		t.Fatalf("%d open files before the replays, %d after", before, after)
	}
	t.Logf("%d complete replays, %d of evicted jobs", complete.Load(), gone.Load())
	if complete.Load() == 0 {
		t.Fatal("no replay read a sealed job's stream")
	}
}

// TestStoreReplayAfterCompactionEviction: when live jobs outnumber the
// terminal ones the store limit leaves, the catalog runs over the limit
// until the next admission, and a compaction in between evicts the
// oldest finished jobs from disk while the Manager still lists them.
// Those jobs handed their events to the store; a replay must still
// serve them until the Manager evicts the job.
func TestStoreReplayAfterCompactionEviction(t *testing.T) {
	store, err := OpenFileStore(t.TempDir(), FileStoreOptions{CompactBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := OpenManager(Options{MaxConcurrent: 1, StoreLimit: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, m)
	release := installHold(m)
	var ids []string
	for i := 0; i < 4; i++ {
		st, err := m.Submit(wire(int64(1600 + i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	release()
	for _, id := range ids {
		await(t, m, id)
	}
	h := NewHandler(m)
	for _, id := range ids {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		code, body := replaySSE(h, id)
		if n := strings.Count(body, "\nid: ") + 1; code != http.StatusOK || !strings.HasPrefix(body, "id: 1\n") || n != st.Events {
			t.Fatalf("listed job %s with %d events replays %d with %d bytes", id, st.Events, code, len(body))
		}
	}
}

// TestStoreBootCostIgnoresEvents pins the cost of a boot over sealed
// jobs as an allocation count: OpenFileStore, OpenManager and the
// Shutdown that stops it allocate the same over the same jobs whether
// they logged few events or many (ProgressTicks 4 or 256); a -race
// build only logs the counts. No terminal job holds decoded events
// after the compaction that seals it, nor after a boot.
func TestStoreBootCostIgnoresEvents(t *testing.T) {
	failing := wire(1501)
	failing.Estimators = []session.EstimatorJSON{{Kind: "mean", Attr: "no_such_attr"}}
	gnrw := wire(1502)
	gnrw.Walker = "gnrw-degree"
	gnrw.Cache = "shared"
	specs := []session.SpecJSON{wire(1500), failing, gnrw, wire(1503)}
	noEvents := func(label string, m *Manager) {
		t.Helper()
		for _, j := range m.store.All() {
			j.mu.Lock()
			terminal, held := j.sum.State.Terminal(), len(j.events)
			j.mu.Unlock()
			if !terminal || held > 0 {
				t.Fatalf("%s: job %s is %s holding %d decoded events", label, j.id, j.sum.State, held)
			}
		}
	}
	boot := func(dir string) *Manager {
		t.Helper()
		m, _ := openFileManager(t, dir, Options{MaxConcurrent: 1})
		return m
	}
	events := map[int]int{}
	allocs := map[int]float64{}
	for _, ticks := range []int{4, 256} {
		dir := t.TempDir()
		store, err := OpenFileStore(dir, FileStoreOptions{CompactBytes: 1 << 40})
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := OpenManager(Options{MaxConcurrent: 2, ProgressTicks: ticks, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range specs {
			if _, err := m.Submit(w); err != nil {
				t.Fatal(err)
			}
		}
		awaitAll(t, m)
		func() {
			store.mu.Lock()
			defer store.mu.Unlock()
			if err := store.compactLocked(); err != nil {
				t.Fatal(err)
			}
			if len(store.recs) != 0 || len(store.sealed) != len(specs) {
				t.Fatalf("after the sealing compaction the mirror holds %d records and %d sealed jobs", len(store.recs), len(store.sealed))
			}
		}()
		noEvents("after the sealing compaction", m)
		for _, st := range m.List() {
			events[ticks] += st.Events
		}
		shutdown(t, m)
		m = boot(dir)
		noEvents("after boot", m)
		shutdown(t, m)
		// With the collector off, sync.Pool hits (fmt, encoding/json) do
		// not depend on when a collection ran.
		gc := debug.SetGCPercent(-1)
		allocs[ticks] = testing.AllocsPerRun(10, func() { shutdown(t, boot(dir)) })
		debug.SetGCPercent(gc)
	}
	t.Logf("boot allocations: %v with %d events, %v with %d", allocs[4], events[4], allocs[256], events[256])
	if events[256] < 4*events[4] {
		t.Fatalf("ProgressTicks 256 logged %d events against %d at 4, want many more", events[256], events[4])
	}
	if raceEnabled {
		t.Log("allocation counts are not compared under -race, whose sync.Pool drops puts at random")
	} else if allocs[4] != allocs[256] {
		t.Fatalf("boot over the same jobs allocates %v with %d events, %v with %d", allocs[4], events[4], allocs[256], events[256])
	}
}

// flipByte flips one bit of the byte at the middle of a file's payload
// bytes, avoiding newlines, so the damage lands inside a line.
func flipByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := len(data) / 2
	for data[i] == '\n' || data[i]^1 == '\n' {
		i++
	}
	data[i] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStoreCorruptManifest: the manifest is committed by rename, so a
// damaged line or a missing or wrong end marker is corruption, and
// OpenFileStore fails naming the file instead of loading a prefix.
func TestStoreCorruptManifest(t *testing.T) {
	src := filepath.Join("testdata", "v1store")
	path := func(dir string) string { return filepath.Join(dir, snapshotName) }

	flipped := copyDir(t, src)
	flipByte(t, path(flipped))

	data, err := os.ReadFile(path(src))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines = lines[:len(lines)-1] // drop the empty tail after the last newline
	unsealed := copyDir(t, src)  // the end marker is missing
	if err := os.WriteFile(path(unsealed), bytes.Join(lines[:len(lines)-1], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	miscounted := copyDir(t, src) // a CRC-clean end marker with the wrong count
	body := bytes.Join(lines[:len(lines)-2], nil)
	if err := os.WriteFile(path(miscounted), encodeRec(body, []byte(`{"k":"end","n":3}`)), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, dir := range []string{flipped, unsealed, miscounted} {
		if _, err := OpenFileStore(dir, FileStoreOptions{}); err == nil || !strings.Contains(err.Error(), snapshotName) {
			t.Errorf("OpenFileStore on a corrupt manifest: err = %v, want one naming %s", err, snapshotName)
		}
	}
}

// TestStoreCorruptSegment: a damaged segment fails OpenFileStore,
// naming the segment; a leftover temp file of an interrupted compaction
// is not corruption and is removed.
func TestStoreCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	m, _ := openFileManager(t, dir, Options{MaxConcurrent: 2})
	for i := 0; i < 3; i++ {
		st, err := m.Submit(wire(int64(1200 + i)))
		if err != nil {
			t.Fatal(err)
		}
		await(t, m, st.ID)
	}
	shutdown(t, m)
	segs := segmentFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("segments %v, want one", segs)
	}

	leftover := copyDir(t, dir)
	tmp := filepath.Join(leftover, segmentName(2)+".tmp")
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := OpenFileStore(leftover, FileStoreOptions{})
	if err != nil {
		t.Fatalf("a leftover temp file failed the open: %v", err)
	}
	if recs, _ := store.Recover(); len(recs) != 3 {
		t.Fatalf("recovered %d jobs, want 3", len(recs))
	}
	store.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file survived the open: %v", err)
	}

	flipByte(t, filepath.Join(dir, segs[0]))
	if _, err := OpenFileStore(dir, FileStoreOptions{}); err == nil || !strings.Contains(err.Error(), segs[0]) {
		t.Fatalf("OpenFileStore on a corrupt segment: err = %v, want one naming %s", err, segs[0])
	}
}
