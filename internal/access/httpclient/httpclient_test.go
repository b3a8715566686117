package httpclient

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"histwalk/internal/access"
	"histwalk/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.Complete(5)
	if err := g.SetAttr("age", []float64{10, 20, 30, 40, 50}); err != nil {
		t.Fatal(err)
	}
	return g
}

func testClient(t *testing.T, srv *httptest.Server, cfg Config) *Client {
	t.Helper()
	cfg.BaseURL = srv.URL
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = srv.Client()
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = time.Millisecond
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFetchRoundTrip drives the client against Handler over a real
// store and checks the decoded Row matches the store-side Row exactly:
// neighbors, node attributes, and the free per-neighbor summaries.
func TestFetchRoundTrip(t *testing.T) {
	g := testGraph(t)
	srv := httptest.NewServer(Handler(g))
	defer srv.Close()
	c := testClient(t, srv, Config{})

	for u := graph.Node(0); u < graph.Node(g.NumNodes()); u++ {
		got, err := c.Fetch(context.Background(), u)
		if err != nil {
			t.Fatalf("fetch %d: %v", u, err)
		}
		want, err := access.StoreRow(g, g.AttrNames(), u)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Neighbors) != fmt.Sprint(want.Neighbors) {
			t.Fatalf("node %d neighbors = %v, want %v", u, got.Neighbors, want.Neighbors)
		}
		if fmt.Sprint(got.Attrs) != fmt.Sprint(want.Attrs) {
			t.Fatalf("node %d attrs = %v, want %v", u, got.Attrs, want.Attrs)
		}
		if len(got.Summaries) != len(want.Summaries) {
			t.Fatalf("node %d summaries = %d, want %d", u, len(got.Summaries), len(want.Summaries))
		}
		for i := range got.Summaries {
			if got.Summaries[i].Degree != want.Summaries[i].Degree ||
				fmt.Sprint(got.Summaries[i].Attrs) != fmt.Sprint(want.Summaries[i].Attrs) {
				t.Fatalf("node %d summary %d = %+v, want %+v", u, i, got.Summaries[i], want.Summaries[i])
			}
		}
	}
}

// TestFetchUnknownNode checks a 404 maps to access.ErrUnknownNode and
// is terminal — exactly one request, no retries.
func TestFetchUnknownNode(t *testing.T) {
	g := testGraph(t)
	var hits atomic.Int64
	inner := Handler(g)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c := testClient(t, srv, Config{})

	for _, u := range []graph.Node{99, -1} {
		hits.Store(0)
		if _, err := c.Fetch(context.Background(), u); !errors.Is(err, access.ErrUnknownNode) {
			t.Fatalf("fetch %d: err = %v, want ErrUnknownNode", u, err)
		}
		if got := hits.Load(); got != 1 {
			t.Fatalf("fetch %d: %d requests for a 404, want 1", u, got)
		}
	}
}

// TestFetchRetryAfter checks 429s are retried honoring Retry-After and
// that the auth header rides along on every attempt.
func TestFetchRetryAfter(t *testing.T) {
	g := testGraph(t)
	inner := Handler(g)
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get("X-Api-Key"); got != "sekrit" {
			t.Errorf("auth header = %q, want sekrit", got)
		}
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "rate limited", http.StatusTooManyRequests)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c := testClient(t, srv, Config{AuthHeader: "X-Api-Key", AuthValue: "sekrit"})

	row, err := c.Fetch(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(row.Neighbors) != 4 {
		t.Fatalf("neighbors = %v, want 4 of them", row.Neighbors)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("%d requests, want 3 (two 429s then success)", got)
	}
}

// TestFetchRetriesExhausted checks a persistent 500 fails after
// MaxRetries+1 attempts, and that negative MaxRetries disables
// retrying.
func TestFetchRetriesExhausted(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()

	c := testClient(t, srv, Config{MaxRetries: 2})
	if _, err := c.Fetch(context.Background(), 0); err == nil {
		t.Fatal("fetch against a persistent 500 succeeded")
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("%d requests with MaxRetries=2, want 3", got)
	}

	hits.Store(0)
	c = testClient(t, srv, Config{MaxRetries: -1})
	if _, err := c.Fetch(context.Background(), 0); err == nil {
		t.Fatal("fetch against a persistent 500 succeeded")
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("%d requests with retries disabled, want 1", got)
	}
}

// TestFetchTerminalStatus checks an unexpected 4xx is terminal.
func TestFetchTerminalStatus(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "nope", http.StatusForbidden)
	}))
	defer srv.Close()
	c := testClient(t, srv, Config{})
	if _, err := c.Fetch(context.Background(), 0); err == nil {
		t.Fatal("fetch against a 403 succeeded")
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("%d requests for a 403, want 1", got)
	}
}

// TestFetchContextCancel checks cancellation interrupts the backoff
// sleep between retries.
func TestFetchContextCancel(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3600")
		http.Error(w, "rate limited", http.StatusTooManyRequests)
	}))
	defer srv.Close()
	c := testClient(t, srv, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Fetch(ctx, 0)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Fetch did not return after cancel despite hour-long Retry-After")
	}
}

// TestNewValidation covers config normalization.
func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted empty BaseURL")
	}
	c, err := New(Config{BaseURL: "http://x/"})
	if err != nil {
		t.Fatal(err)
	}
	if c.base != "http://x" {
		t.Fatalf("base = %q, trailing slash not trimmed", c.base)
	}
	if c.retries != DefaultMaxRetries || c.backoff != DefaultBackoffBase || c.timeout != DefaultTimeout {
		t.Fatalf("defaults not applied: %+v", c)
	}
}

// TestDefaultClientPoolsConnections runs a windowed crawl's worth of
// concurrent fetches through a Client with no HTTPClient configured
// and counts the connections the server accepts. The server holds the
// opening wave until every fetcher's first request has arrived, so the
// crawl opens one connection per fetcher at once; with every idle
// connection kept for the one upstream host, no later fetch needs
// another.
func TestDefaultClientPoolsConnections(t *testing.T) {
	const fetchers, fetches = 32, 40
	g := testGraph(t)
	h := Handler(g)
	var arrivals, dials atomic.Int64
	var opening sync.WaitGroup
	opening.Add(fetchers)
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if arrivals.Add(1) <= fetchers {
			opening.Done()
			opening.Wait()
		}
		h.ServeHTTP(w, r)
	}))
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	c, err := New(Config{BaseURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, fetchers)
	for w := 0; w < fetchers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < fetches; i++ {
				u := graph.Node((w + i) % g.NumNodes())
				if _, err := c.Fetch(context.Background(), u); err != nil {
					errs <- fmt.Errorf("fetch %d: %w", u, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := dials.Load(); n > fetchers {
		t.Fatalf("%d fetchers × %d fetches opened %d connections, want at most %d", fetchers, fetches, n, fetchers)
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"2", 2 * time.Second},
		{"-5", 0},
		{"garbage", 0},
		{time.Now().UTC().Add(-time.Minute).Format(http.TimeFormat), 0},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.in); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	// A future HTTP-date yields roughly the remaining interval.
	d := parseRetryAfter(time.Now().UTC().Add(time.Hour).Format(http.TimeFormat))
	if d < 50*time.Minute || d > time.Hour {
		t.Errorf("future HTTP-date Retry-After = %v, want ~1h", d)
	}
}

// TestDelayBounds checks jittered backoff stays in [d/2, 3d/2) and is
// capped, and that Retry-After wins over backoff.
func TestDelayBounds(t *testing.T) {
	c, err := New(Config{BaseURL: "http://x", BackoffBase: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 20; attempt++ {
		base := c.backoff << uint(attempt)
		if base > maxBackoff || base <= 0 {
			base = maxBackoff
		}
		for i := 0; i < 10; i++ {
			d := c.delay(attempt, 0)
			if d < base/2 || d >= base/2+base {
				t.Fatalf("delay(%d) = %v outside [%v, %v)", attempt, d, base/2, base/2+base)
			}
		}
	}
	if got := c.delay(0, 7*time.Second); got != 7*time.Second {
		t.Fatalf("Retry-After ignored: delay = %v", got)
	}
}
