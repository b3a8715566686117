package main

// End-to-end smoke test of the daemon, run by CI: start histwalkd on a
// random port, submit a CNRW job on a synthetic graph over real HTTP,
// stream its SSE progress events, fetch the result, and assert it is
// byte-identical (as JSON) to a direct histwalk.Run of the same spec —
// then shut the daemon down gracefully and expect a clean exit.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"histwalk"
)

// startDaemon runs the daemon on a random port and returns its base
// URL plus a shutdown func that cancels its ctx and waits for exit.
// The same shutdown runs as a test cleanup, so a test that fails
// part-way leaves no daemon or job running behind it; calling it again
// returns the first call's result.
func startDaemon(t *testing.T, args ...string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	var runErr error
	exited := make(chan struct{}) // closed once run has returned runErr
	go func() {
		runErr = run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), pw)
		pw.Close()
		close(exited)
	}()
	stop := sync.OnceValue(func() error {
		cancel()
		select {
		case <-exited:
			return runErr
		case <-time.After(60 * time.Second):
			return fmt.Errorf("daemon did not exit")
		}
	})
	t.Cleanup(func() { stop() })
	lines := bufio.NewReader(pr)
	first := make(chan string, 1)
	go func() {
		line, err := lines.ReadString('\n')
		if err != nil {
			first <- ""
			return
		}
		first <- strings.TrimSpace(line)
		io.Copy(io.Discard, lines) // keep the pipe drained
	}()
	var base string
	select {
	case line := <-first:
		const prefix = "histwalkd listening on "
		if !strings.HasPrefix(line, prefix) {
			t.Fatalf("unexpected startup line %q", line)
		}
		base = strings.TrimPrefix(line, prefix)
	case <-exited:
		t.Fatalf("daemon exited before listening: %v", runErr)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never started listening")
	}
	return base, stop
}

func TestDaemonEndToEnd(t *testing.T) {
	base, stop := startDaemon(t)

	spec := histwalk.SpecJSON{
		Dataset: "clustered", // synthetic clustered-cliques stand-in
		Walker:  "cnrw",
		Budget:  60,
		Chains:  4,
		Seed:    99,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st histwalk.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, st)
	}

	// Stream the job's SSE events to completion; budgets must be
	// monotone per chain and the stream must end with the result event.
	resp, err = http.Get(base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lastType string
	var progressEvents int
	spent := map[int]int{}
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev histwalk.JobEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		lastType = ev.Type
		if ev.Type == "progress" && ev.Chain != nil {
			progressEvents++
			if ev.Chain.Spent < spent[ev.Chain.Chain] {
				t.Fatalf("chain %d budget went backwards", ev.Chain.Chain)
			}
			spent[ev.Chain.Chain] = ev.Chain.Spent
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lastType != "result" || progressEvents == 0 {
		t.Fatalf("stream ended on %q after %d progress events", lastType, progressEvents)
	}

	// Fetch the finished job and compare against a direct Run: the
	// JSON serializations must match byte-for-byte.
	resp, err = http.Get(base + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var fin histwalk.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&fin); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fin.State != histwalk.JobDone || fin.Result == nil {
		t.Fatalf("job ended %s (%s)", fin.State, fin.Error)
	}
	resolved, err := spec.Spec()
	if err != nil {
		t.Fatal(err)
	}
	want, err := histwalk.Run(context.Background(), resolved)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(fin.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("daemon result differs from direct Run:\n%s\nvs\n%s", gotJSON, wantJSON)
	}

	// Metrics should reflect the completed job.
	var met histwalk.ServiceMetrics
	resp, err = http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&met); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if met.Submitted != 1 || met.Done != 1 {
		t.Fatalf("metrics %+v", met)
	}

	if err := stop(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

// TestDaemonHTTPTransportJob is the live-crawl smoke, run by CI: a
// histwalk dataset is served as a fake social API (the HTTP transport's
// JSON neighbor-list wire format, behind an auth check), the daemon
// receives a wire-form spec whose transport entry points at that
// endpoint, and the finished job's Result must equal a direct
// histwalk.Run of the same spec byte for byte as JSON, except for
// Pipeline: the pipeline's wire-side counters are scheduling-dependent
// and deliberately excluded from the comparison. The job authenticates
// upstream, but its credential appears in no response body: not the
// POST reply, a GET, the job list or the SSE stream.
func TestDaemonHTTPTransportJob(t *testing.T) {
	g := histwalk.GooglePlusN(200, 1)
	inner := histwalk.HTTPTransportHandler(g)
	var hits atomic.Int64
	api := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Api-Key") != "sekrit" {
			http.Error(w, "unauthorized", http.StatusUnauthorized)
			return
		}
		hits.Add(1)
		inner.ServeHTTP(w, r)
	}))
	defer api.Close()

	base, stop := startDaemon(t)

	spec := histwalk.SpecJSON{
		Walker: "cnrw",
		Budget: 40,
		Chains: 2,
		Seed:   3,
		Transport: &histwalk.TransportJSON{
			Kind:       "http",
			URL:        api.URL,
			Window:     8,
			Start:      7,
			AuthHeader: "X-Api-Key",
			AuthValue:  "sekrit",
		},
	}
	// read returns a successful response's body after checking that it
	// does not carry the credential.
	read := func(resp *http.Response, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode/100 != 2 {
			t.Fatalf("%s %s: %d %v %s", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, err, raw)
		}
		if bytes.Contains(raw, []byte("sekrit")) {
			t.Fatalf("%s %s leaks the auth value: %s", resp.Request.Method, resp.Request.URL.Path, raw)
		}
		return raw
	}
	// The job runs under each cache policy: the shared ledger composes
	// with the pipeline like the isolated one.
	for _, cache := range []string{"isolated", "shared"} {
		spec.Cache = cache
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var st histwalk.JobStatus
		if err := json.Unmarshal(read(http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))), &st); err != nil {
			t.Fatal(err)
		}
		if st.ID == "" || st.Spec.Transport == nil || st.Spec.Transport.AuthValue != "<redacted>" {
			t.Fatalf("submit: %+v", st)
		}

		// Poll to a terminal state; the crawl is small but goes over two
		// real HTTP hops (daemon -> api), so give it a generous deadline.
		var fin histwalk.JobStatus
		deadline := time.Now().Add(60 * time.Second)
		for {
			if err := json.Unmarshal(read(http.Get(base+"/v1/jobs/"+st.ID)), &fin); err != nil {
				t.Fatal(err)
			}
			if fin.State != histwalk.JobQueued && fin.State != histwalk.JobRunning {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job stuck in %s", fin.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if fin.State != histwalk.JobDone || fin.Result == nil {
			t.Fatalf("%s: job ended %s (%s)", cache, fin.State, fin.Error)
		}
		if hits.Load() == 0 {
			t.Fatal("daemon never reached the HTTP endpoint")
		}
		read(http.Get(base + "/v1/jobs"))
		if sse := read(http.Get(base + "/v1/jobs/" + st.ID + "/events")); !bytes.Contains(sse, []byte(`"type":"result"`)) {
			t.Fatalf("event stream ended without its result: %s", sse)
		}

		// A direct Run of the same wire spec (same endpoint, same seed) must
		// produce the same Result but for Pipeline: the speculation window
		// changes wall-clock only, never trajectories or the ledger.
		resolved, err := spec.Spec()
		if err != nil {
			t.Fatal(err)
		}
		want, err := histwalk.Run(context.Background(), resolved)
		if err != nil {
			t.Fatal(err)
		}
		if fin.Result.Pipeline == nil || fin.Result.Pipeline.NetworkFetches == 0 {
			t.Fatalf("result missing pipeline stats: %+v", fin.Result.Pipeline)
		}
		got := *fin.Result
		got.Pipeline, want.Pipeline = nil, nil
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(&got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Fatalf("%s: daemon Result differs from direct Run:\n%s\nvs\n%s", cache, gotJSON, wantJSON)
		}
		if (cache == "shared") != (got.CrossChainHits > 0) {
			t.Fatalf("%s: %d cross-chain hits from two chains that start at one node", cache, got.CrossChainHits)
		}
		// The status itself also surfaces the pipeline's final wire-side
		// accounting, so clients can read fetch/dedup behavior without
		// digging into the Result.
		if fin.Pipeline == nil || fin.Pipeline.NetworkFetches == 0 {
			t.Fatalf("job status missing pipeline stats: %+v", fin.Pipeline)
		}
	}

	if err := stop(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

// TestDaemonObservability exercises the ops surface over real HTTP:
// /healthz must report build info, /metrics must serve the Prometheus
// text exposition with the service/engine/runtime metric families, and
// /debug/pprof/ must be mounted when (and only when) -pprof is set.
func TestDaemonObservability(t *testing.T) {
	base, stop := startDaemon(t, "-pprof")

	// scrape returns the /metrics text exposition: Prometheus format
	// with the instrumented families from the service, engine, session
	// and runtime.
	scrape := func() string {
		t.Helper()
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics: %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
			t.Fatalf("metrics content type %q", ct)
		}
		return string(raw)
	}
	metricIn := func(text, name string) float64 {
		t.Helper()
		for _, line := range strings.Split(text, "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				v, err := strconv.ParseFloat(rest, 64)
				if err != nil {
					t.Fatalf("metric %s: bad value %q", name, rest)
				}
				return v
			}
		}
		t.Fatalf("exposition missing %s:\n%s", name, text)
		return 0
	}
	before := scrape()

	// Run one tiny job so the scrape below reflects real activity.
	body, err := json.Marshal(histwalk.SpecJSON{
		Dataset: "clustered", Walker: "srw", Budget: 30, Chains: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st histwalk.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur histwalk.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if cur.State == histwalk.JobDone {
			break
		}
		if cur.State != histwalk.JobQueued && cur.State != histwalk.JobRunning {
			t.Fatalf("job ended %s (%s)", cur.State, cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// /healthz: liveness plus build identification.
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h histwalk.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.GoVersion == "" {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, h)
	}

	// The registry is process-wide, so counters accumulate across the
	// tests in this binary: assert relations, not exact totals.
	text := scrape()
	metric := func(name string) float64 { t.Helper(); return metricIn(text, name) }
	if v := metric("histwalk_jobs_submitted_total"); v < 1 {
		t.Errorf("jobs_submitted_total = %v, want >= 1", v)
	}
	if v := metric("histwalk_jobs_done_total"); v < 1 {
		t.Errorf("jobs_done_total = %v, want >= 1", v)
	}
	// Every job this process ran is terminal, so the state gauges must
	// have returned to zero — they are exact, not monotone.
	if v := metric("histwalk_jobs_running"); v != 0 {
		t.Errorf("jobs_running = %v, want 0", v)
	}
	if v := metric("histwalk_jobs_queued"); v != 0 {
		t.Errorf("jobs_queued = %v, want 0", v)
	}
	if v := metric("histwalk_job_run_seconds_count"); v < 1 {
		t.Errorf("job_run_seconds_count = %v, want >= 1", v)
	}
	// Chains are counted over this test's own job: a job that an
	// earlier, failing test left to be cancelled by its cleanup has
	// chains that started but never reached a stop condition.
	started := metric("histwalk_chains_started_total") - metricIn(before, "histwalk_chains_started_total")
	finished := metric("histwalk_chains_finished_total") - metricIn(before, "histwalk_chains_finished_total")
	if started < 2 || finished != started {
		t.Errorf("chains started/finished by this job = %v/%v, want >= 2 and equal", started, finished)
	}
	if v := metric("histwalk_engine_trials_started_total"); v < 1 {
		t.Errorf("engine_trials_started_total = %v, want >= 1", v)
	}
	if v := metric("histwalk_runtime_goroutines"); v < 1 {
		t.Errorf("runtime_goroutines = %v, want >= 1", v)
	}
	if t.Failed() {
		t.Fatalf("exposition was:\n%s", text)
	}

	// pprof is mounted because the daemon was started with -pprof.
	resp, err = http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof with -pprof: %d", resp.StatusCode)
	}

	if err := stop(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	// Without -pprof the profiling surface must not exist.
	base2, stop2 := startDaemon(t)
	resp, err = http.Get(base2 + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without -pprof: %d, want 404", resp.StatusCode)
	}
	if err := stop2(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

// TestDaemonDrainCancelsQueued verifies the signal path end-to-end: a
// long job occupies the single worker, a queued job waits, shutdown
// arrives — the queued job must end cancelled, and the daemon must
// still exit cleanly within the drain budget after aborting the runner.
func TestDaemonDrainCancelsQueued(t *testing.T) {
	base, stop := startDaemon(t, "-max-concurrent", "1", "-drain", "100ms")

	submit := func(spec histwalk.SpecJSON) histwalk.JobStatus {
		t.Helper()
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st histwalk.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	long := submit(histwalk.SpecJSON{Dataset: "gplus", Walker: "cnrw", Budget: 3000, Chains: 4, Seed: 5})
	queued := submit(histwalk.SpecJSON{Dataset: "clustered", Walker: "srw", Budget: 30, Seed: 6})

	// Wait for the long job to be running (or, on a very fast host,
	// already finished) so the shutdown below exercises the drain path.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + long.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur histwalk.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if cur.State != histwalk.JobQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("long job never started")
		}
		time.Sleep(time.Millisecond)
	}

	// The tiny drain budget forces an abort of the running job; the
	// daemon reports the forced shutdown as an error but must exit.
	if err := stop(); err == nil {
		t.Log("drain finished inside the budget (fast host); jobs may have completed")
	} else if !strings.Contains(err.Error(), "forced shutdown") {
		t.Fatalf("unexpected shutdown error: %v", err)
	}
	_ = queued
}
