package service

// The Manager closes the session every job drives: a pipelined job's
// speculative fetches stop with the job, and a cancelled job's chains
// are counted as abandoned.

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"histwalk/internal/obs"
	"histwalk/internal/session"
)

// scrapeMetrics reads the process registry's Prometheus exposition
// into a name → value map.
func scrapeMetrics(t *testing.T) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	obs.Default.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}

// metric returns one scraped value, failing when the family is absent.
func metric(t *testing.T, scrape map[string]float64, name string) float64 {
	t.Helper()
	v, ok := scrape[name]
	if !ok {
		t.Fatalf("exposition lacks %s", name)
	}
	return v
}

// metricDelta returns how far one scraped value moved between two
// scrapes.
func metricDelta(t *testing.T, before, after map[string]float64, name string) float64 {
	t.Helper()
	return metric(t, after, name) - metric(t, before, name)
}

// TestPipelinedJobStopsSpeculation: a pipelined-sim job keeps
// speculative fetches in flight while it runs, and none once it is
// terminal — drive closes its session before the terminal event.
func TestPipelinedJobStopsSpeculation(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1})
	defer shutdown(t, m)
	const inflight = "histwalk_fetch_inflight_speculative"
	if v := metric(t, scrapeMetrics(t), inflight); v != 0 {
		t.Fatalf("%s = %v before the job", inflight, v)
	}
	st, err := m.Submit(session.SpecJSON{
		Dataset: "gplus", Walker: "cnrw", Budget: 40, Chains: 2, Seed: 17,
		Transport: &session.TransportJSON{Kind: "sim", Window: 32, LatencyMS: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	peak := 0.0
	deadline := time.Now().Add(60 * time.Second)
	for !m.store.All()[0].stateNow().Terminal() {
		peak = max(peak, metric(t, scrapeMetrics(t), inflight))
		if time.Now().After(deadline) {
			t.Fatal("pipelined job did not finish")
		}
		time.Sleep(200 * time.Microsecond)
	}
	if fin := await(t, m, st.ID); fin.State != StateDone {
		t.Fatalf("job ended %s (%s)", fin.State, fin.Error)
	}
	if v := metric(t, scrapeMetrics(t), inflight); v != 0 {
		t.Fatalf("%s = %v once the job is terminal, want 0", inflight, v)
	}
	if peak == 0 {
		t.Fatalf("%s never rose above 0 mid-run", inflight)
	}
}

// TestDeletedJobCountsAbandonedChains DELETEs a running job: every
// chain it started is then counted as finished or abandoned, and the
// abandoned chains' spend reaches the budget ledger.
func TestDeletedJobCountsAbandonedChains(t *testing.T) {
	srv, m := testServer(t, Options{MaxConcurrent: 1})
	before := scrapeMetrics(t)
	w := longWire(1300)
	w.Budget = 20_000_000
	st := postJob(t, srv.URL, w)
	waitSpent(t, m, st.ID, 1)
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %s", resp.Status)
	}
	fin := await(t, m, st.ID)
	if fin.State != StateCancelled {
		t.Fatalf("job ended %s", fin.State)
	}
	after := scrapeMetrics(t)
	delta := func(name string) float64 {
		t.Helper()
		return metric(t, after, name) - metric(t, before, name)
	}
	started := delta("histwalk_chains_started_total")
	finished := delta("histwalk_chains_finished_total")
	abandoned := delta("histwalk_chains_abandoned_total")
	if started != 4 || abandoned == 0 || finished+abandoned != started {
		t.Fatalf("chains started/finished/abandoned = %v/%v/%v, want 4 = finished + abandoned, some abandoned",
			started, finished, abandoned)
	}
	reported := 0
	for _, c := range fin.Chains {
		reported += c.Spent
	}
	if spent := delta("histwalk_budget_spent_total"); spent < float64(reported) {
		t.Fatalf("budget_spent grew %v, below the %d the chains reported", spent, reported)
	}
}
