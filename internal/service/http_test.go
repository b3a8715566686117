package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"histwalk/internal/session"
)

// testServer starts an httptest server over a fresh manager.
func testServer(t *testing.T, opts Options) (*httptest.Server, *Manager) {
	t.Helper()
	m := NewManager(opts)
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		shutdown(t, m)
	})
	return srv, m
}

func postJob(t *testing.T, url string, w session.SpecJSON) JobStatus {
	t.Helper()
	body, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Fatalf("Location = %q", loc)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestHTTPLifecycle walks the whole API: submit, poll, list, events,
// metrics, and checks the fetched result round-trips to exactly the
// direct Run outcome.
func TestHTTPLifecycle(t *testing.T) {
	srv, _ := testServer(t, Options{MaxConcurrent: 2})
	before := scrapeMetrics(t)
	w := wire(41)
	st := postJob(t, srv.URL, w)
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job state %s", st.State)
	}

	var fin JobStatus
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code := getJSON(t, srv.URL+"/v1/jobs/"+st.ID, &fin); code != http.StatusOK {
			t.Fatalf("GET job = %d", code)
		}
		if fin.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if fin.State != StateDone || fin.Result == nil {
		t.Fatalf("job ended %s (%s)", fin.State, fin.Error)
	}

	spec, err := w.Spec()
	if err != nil {
		t.Fatal(err)
	}
	want, err := session.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fin.Result, want) {
		t.Fatalf("HTTP-fetched result differs from direct Run:\n%+v\nvs\n%+v", fin.Result, want)
	}

	var list []JobStatus
	if code := getJSON(t, srv.URL+"/v1/jobs", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("GET /v1/jobs = %d, %d jobs", code, len(list))
	}
	after := scrapeMetrics(t)
	submitted := metricDelta(t, before, after, "histwalk_jobs_submitted_total")
	done := metricDelta(t, before, after, "histwalk_jobs_done_total")
	if submitted != 1 || done != 1 {
		t.Fatalf("jobs submitted/done grew %v/%v, want 1/1", submitted, done)
	}
	if code := getJSON(t, srv.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("GET /healthz = %d", code)
	}
}

// sseEvent is one parsed SSE message.
type sseEvent struct {
	id    int
	event string
	data  Event
}

// readSSE consumes an SSE stream to EOF.
func readSSE(t *testing.T, resp *http.Response) []sseEvent {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" {
				out = append(out, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(line, "id: %d", &cur.id)
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatalf("bad event payload %q: %v", line, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestHTTPEventStream subscribes to a job's SSE stream from the start
// and checks ordering, per-chain monotone budgets and the terminal
// result; then it reconnects with Last-Event-ID and expects only the
// tail.
func TestHTTPEventStream(t *testing.T) {
	srv, _ := testServer(t, Options{MaxConcurrent: 1})
	st := postJob(t, srv.URL, wire(42))

	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	evs := readSSE(t, resp)
	if len(evs) < 3 {
		t.Fatalf("only %d events", len(evs))
	}
	if evs[0].event != "state" || evs[0].data.State != StateQueued {
		t.Fatalf("first event %+v", evs[0])
	}
	last := evs[len(evs)-1]
	if last.event != "result" || last.data.Result == nil {
		t.Fatalf("last event %+v", last)
	}
	spent := map[int]int{}
	for i, ev := range evs {
		if ev.id != i+1 {
			t.Fatalf("event %d has id %d (gap or reorder)", i, ev.id)
		}
		if ev.event == "progress" {
			c := ev.data.Chain
			if c == nil {
				t.Fatalf("progress without chain: %+v", ev)
			}
			if c.Spent < spent[c.Chain] {
				t.Fatalf("chain %d spent went backwards over SSE", c.Chain)
			}
			spent[c.Chain] = c.Spent
		}
	}

	// Resume: replay only past the given Last-Event-ID.
	req, err := http.NewRequest("GET", srv.URL+"/v1/jobs/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", fmt.Sprint(len(evs)-2))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	tail := readSSE(t, resp2)
	if len(tail) != 2 || tail[0].id != len(evs)-1 {
		t.Fatalf("resume returned %d events starting at %d", len(tail), tail[0].id)
	}
}

// TestHTTPErrors exercises the error statuses.
func TestHTTPErrors(t *testing.T) {
	srv, m := testServer(t, Options{MaxConcurrent: 1})

	if code := getJSON(t, srv.URL+"/v1/jobs/j99999-deadbeef", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job GET = %d", code)
	}
	// /metrics is the only metrics endpoint.
	if code := getJSON(t, srv.URL+"/v1/metrics", nil); code != http.StatusNotFound {
		t.Fatalf("GET /v1/metrics = %d, want 404", code)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"dataset":"clustered","walker":"warp-drive","budget":10,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad walker POST = %d", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"dataset":"clustered","walker":"cnrw","budget":10,"seed":1,"bogus_field":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field POST = %d (DisallowUnknownFields not applied?)", resp.StatusCode)
	}
	// A valid spec behind 2 MiB of leading whitespace: without the body
	// cap it would be admitted.
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(strings.Repeat(" ", 2<<20)+`{"dataset":"clustered","walker":"cnrw","budget":10,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB POST = %d, want 413", resp.StatusCode)
	}
	if jobs := m.List(); len(jobs) != 0 {
		t.Fatalf("oversized POST admitted %d jobs", len(jobs))
	}

	// Cancel of a finished job → 409.
	st := postJob(t, srv.URL, wire(43))
	deadline := time.Now().Add(30 * time.Second)
	for {
		var cur JobStatus
		getJSON(t, srv.URL+"/v1/jobs/"+st.ID, &cur)
		if cur.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
	req, err := http.NewRequest("DELETE", srv.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE terminal job = %d, want 409", resp.StatusCode)
	}
}

// failingStore is a MemStore whose Add fails, as a FileStore's does on
// a full disk.
type failingStore struct{ *MemStore }

func (failingStore) Add(*job, []Event) error {
	return errors.New("service: appending to job log: no space left on device")
}

// TestSubmitStoreFailure: a job-store write failure is the server's
// fault, not a bad spec. POST /v1/jobs answers 500 with the store's
// error, admits no job and counts no submission.
func TestSubmitStoreFailure(t *testing.T) {
	before := scrapeMetrics(t)
	srv, m := testServer(t, Options{MaxConcurrent: 1, Store: failingStore{NewMemStore()}})
	body, err := json.Marshal(wire(44))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var apiErr apiError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(apiErr.Error, "no space left") {
		t.Fatalf("POST with a failing store = %d %q, want 500 naming the store error", resp.StatusCode, apiErr.Error)
	}
	if jobs := m.List(); len(jobs) != 0 {
		t.Fatalf("failed store write admitted %d jobs", len(jobs))
	}
	if d := metricDelta(t, before, scrapeMetrics(t), "histwalk_jobs_submitted_total"); d != 0 {
		t.Fatalf("jobs_submitted_total grew %v on a failed store write", d)
	}
}

// TestHealthzBuildInfo pins the /healthz payload shape: liveness plus
// build identity. Go version is always present; VCS fields depend on
// how the binary was built and stay optional.
func TestHealthzBuildInfo(t *testing.T) {
	srv, _ := testServer(t, Options{MaxConcurrent: 1})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d", resp.StatusCode)
	}
	var h Health
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("status = %q", h.Status)
	}
	if h.GoVersion == "" || !strings.HasPrefix(h.GoVersion, "go") {
		t.Fatalf("go_version = %q", h.GoVersion)
	}
	if h.Module == "" {
		t.Fatalf("module = %q", h.Module)
	}
}

// TestMetricsScrapeConcurrent hammers the Prometheus exposition at
// /metrics and the job list at /v1/jobs while jobs are admitted, run,
// and drained. Run under -race (as CI does), this pins that every
// record path and both read paths are safe against each other and
// against the job lifecycle.
func TestMetricsScrapeConcurrent(t *testing.T) {
	srv, m := testServer(t, Options{MaxConcurrent: 2, QueueDepth: 64})

	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for i := 0; i < 4; i++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-stopScrape:
					return
				default:
				}
				resp, err := http.Get(srv.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("histwalk_jobs_submitted_total")) {
					t.Errorf("scrape: %d", resp.StatusCode)
					return
				}
				if resp, err = http.Get(srv.URL + "/v1/jobs"); err != nil {
					t.Error(err)
					return
				}
				var list []JobStatus
				err = json.NewDecoder(resp.Body).Decode(&list)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil {
					t.Errorf("GET /v1/jobs = %d, %v", resp.StatusCode, err)
					return
				}
			}
		}()
	}

	var ids []string
	for i := 0; i < 8; i++ {
		ids = append(ids, postJob(t, srv.URL, wire(int64(100+i))).ID)
	}
	for _, id := range ids {
		fin := await(t, m, id)
		if fin.State != StateDone {
			t.Fatalf("job %s ended %s (%s)", id, fin.State, fin.Error)
		}
	}
	// Keep scraping through the drain itself, then stop.
	shutdown(t, m)
	close(stopScrape)
	scrapeWG.Wait()
}
