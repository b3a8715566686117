// Package httpclient implements the access.Transport seam over a live
// HTTP JSON neighbor-list endpoint — the layer that turns histwalkd
// from a simulator harness into a crawler of a real remote API.
//
// Wire format (one GET per node, mirroring real OSN list endpoints
// that return rich user objects per listed neighbor):
//
//	GET {base}/v1/neighbors/{id}
//	200 → {"node": 5,
//	       "attrs": {"reviews_count": 12},
//	       "neighbors": [{"id": 7, "degree": 3,
//	                      "attrs": {"reviews_count": 4}}, ...]}
//	404 → the node does not exist (access.ErrUnknownNode, no retry)
//	429/5xx → transient; retried with jittered exponential backoff,
//	          honoring a Retry-After header (seconds or HTTP-date)
//
// The package also exports Handler, the matching server side over any
// graphstore.Store, used by the CI smoke test, by httptest-backed unit
// tests, and as a reference for adapting a real API.
package httpclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"histwalk/internal/access"
	"histwalk/internal/graph"
	"histwalk/internal/graphstore"
	"histwalk/internal/obs"
)

// Process-wide transport counters (see internal/obs): requests counts
// every HTTP round trip attempted, retries the subset re-issued after
// a transient failure — their ratio is the live health of the remote
// API's rate limiting.
var (
	obsHTTPRequests = obs.Default.Counter("histwalk_http_requests_total",
		"HTTP neighbor-list round trips attempted (including retries).")
	obsHTTPRetries = obs.Default.Counter("histwalk_http_retries_total",
		"HTTP round trips re-issued after a transient failure.")
)

// Default transport tuning. Real OSN rate limits operate on the scale
// of minutes, but sampling jobs need to make progress in CI and in
// tests, so the defaults are aggressive; production configs override.
const (
	// DefaultMaxRetries is how many times a transient failure (429,
	// 5xx, transport error) is retried before giving up.
	DefaultMaxRetries = 4
	// DefaultBackoffBase is the first retry delay; each subsequent
	// retry doubles it, then a ±50% jitter is applied.
	DefaultBackoffBase = 200 * time.Millisecond
	// DefaultTimeout bounds one HTTP round trip.
	DefaultTimeout = 30 * time.Second
	// maxBackoff caps the exponential growth so a long retry chain
	// cannot sleep for minutes per attempt.
	maxBackoff = 30 * time.Second
)

// Config configures a Client. The zero value of every field is usable:
// only BaseURL is required.
type Config struct {
	// BaseURL is the endpoint root, e.g. "https://api.example.com";
	// the client appends /v1/neighbors/{id}. A trailing slash is
	// tolerated.
	BaseURL string
	// AuthHeader / AuthValue, when both non-empty, are attached to
	// every request (e.g. "Authorization", "Bearer <token>").
	AuthHeader string
	AuthValue  string
	// MaxRetries overrides DefaultMaxRetries; negative disables
	// retries entirely.
	MaxRetries int
	// BackoffBase overrides DefaultBackoffBase (tests use ~1ms).
	BackoffBase time.Duration
	// Timeout overrides DefaultTimeout for each HTTP round trip.
	Timeout time.Duration
	// HTTPClient overrides the underlying *http.Client (tests inject
	// an httptest server's client); nil shares one package-level client
	// whose transport pools connections for a single upstream host. Its
	// Timeout is left untouched; per-request deadlines come from
	// Timeout above.
	HTTPClient *http.Client
}

// Client is an access.Transport over a remote JSON neighbor-list
// endpoint. It is stateless apart from the immutable config and is
// safe for concurrent use — the Prefetcher issues speculative fetches
// against it from many goroutines.
type Client struct {
	base    string
	header  string
	value   string
	retries int
	backoff time.Duration
	timeout time.Duration
	hc      *http.Client
}

// New returns a Client for cfg.
func New(cfg Config) (*Client, error) {
	base := strings.TrimRight(cfg.BaseURL, "/")
	if base == "" {
		return nil, fmt.Errorf("httpclient: BaseURL is required")
	}
	c := &Client{
		base:    base,
		header:  cfg.AuthHeader,
		value:   cfg.AuthValue,
		retries: cfg.MaxRetries,
		backoff: cfg.BackoffBase,
		timeout: cfg.Timeout,
		hc:      cfg.HTTPClient,
	}
	if c.retries == 0 {
		c.retries = DefaultMaxRetries
	} else if c.retries < 0 {
		c.retries = 0
	}
	if c.backoff <= 0 {
		c.backoff = DefaultBackoffBase
	}
	if c.timeout <= 0 {
		c.timeout = DefaultTimeout
	}
	if c.hc == nil {
		c.hc = defaultHTTPClient
	}
	return c, nil
}

// defaultHTTPClient serves every Client whose Config leaves HTTPClient
// nil, so connections stay pooled across Clients. A crawler talks to
// one upstream host, so its transport keeps as many idle connections
// for that host as in total: http.DefaultTransport keeps 2, and a
// windowed crawl with more fetches in flight than that redials a
// fresh connection for a good share of its requests, leaving the
// closed ones in TIME_WAIT.
var defaultHTTPClient = func() *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = t.MaxIdleConns
	return &http.Client{Transport: t}
}()

// nodeJSON is the wire form of one neighborhood response.
type nodeJSON struct {
	Node      int64              `json:"node"`
	Attrs     map[string]float64 `json:"attrs,omitempty"`
	Neighbors []neighborJSON     `json:"neighbors"`
}

// neighborJSON is the rich-user-object summary of one listed neighbor.
type neighborJSON struct {
	ID     int64              `json:"id"`
	Degree int                `json:"degree"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// Fetch implements access.Transport: one GET with retry/backoff, the
// response decoded into a Row.
func (c *Client) Fetch(ctx context.Context, u graph.Node) (access.Row, error) {
	url := c.base + "/v1/neighbors/" + strconv.FormatInt(int64(u), 10)
	var lastErr error
	for attempt := 0; ; attempt++ {
		obsHTTPRequests.Inc()
		if attempt > 0 {
			obsHTTPRetries.Inc()
		}
		row, retryAfter, err := c.once(ctx, url, u)
		if err == nil {
			return row, nil
		}
		lastErr = err
		var te *transientError
		if !errors.As(err, &te) || attempt >= c.retries {
			return access.Row{}, lastErr
		}
		delay := c.delay(attempt, retryAfter)
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return access.Row{}, context.Cause(ctx)
		}
	}
}

// transientError marks a failure worth retrying (429, 5xx, transport
// errors). Terminal failures (404 → ErrUnknownNode, malformed bodies,
// other 4xx) are returned bare.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// delay computes the sleep before retry number attempt: the server's
// Retry-After if it gave one, otherwise exponential backoff from the
// base with ±50% jitter (decorrelating a fleet of chains that all hit
// the same rate limit at once).
func (c *Client) delay(attempt int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		return retryAfter
	}
	d := c.backoff << uint(attempt)
	if d > maxBackoff || d <= 0 {
		d = maxBackoff
	}
	// jitter in [0.5d, 1.5d); math/rand's global source is
	// concurrency-safe and deliberately unseeded — retry pacing is
	// transport-side and exempt from the determinism invariant.
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// once performs a single HTTP round trip. It returns the parsed row,
// or a Retry-After duration alongside a transient error when the
// server asked us to come back later.
func (c *Client) once(ctx context.Context, url string, u graph.Node) (access.Row, time.Duration, error) {
	rctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, url, nil)
	if err != nil {
		return access.Row{}, 0, fmt.Errorf("httpclient: %w", err)
	}
	req.Header.Set("Accept", "application/json")
	if c.header != "" && c.value != "" {
		req.Header.Set(c.header, c.value)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// If the caller's context ended, surface that verbatim;
		// otherwise treat the transport error as transient.
		if ctx.Err() != nil {
			return access.Row{}, 0, context.Cause(ctx)
		}
		return access.Row{}, 0, &transientError{fmt.Errorf("httpclient: %w", err)}
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusOK:
		// parsed below
	case resp.StatusCode == http.StatusNotFound:
		return access.Row{}, 0, fmt.Errorf("%w: %d", access.ErrUnknownNode, u)
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
		return access.Row{}, parseRetryAfter(resp.Header.Get("Retry-After")),
			&transientError{fmt.Errorf("httpclient: %s fetching node %d", resp.Status, u)}
	default:
		return access.Row{}, 0, fmt.Errorf("httpclient: %s fetching node %d", resp.Status, u)
	}
	var body nodeJSON
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&body); err != nil {
		return access.Row{}, 0, fmt.Errorf("httpclient: decoding node %d: %w", u, err)
	}
	row := access.Row{
		Neighbors: make([]graph.Node, len(body.Neighbors)),
		Attrs:     body.Attrs,
		Summaries: make([]access.NeighborSummary, len(body.Neighbors)),
	}
	for i, n := range body.Neighbors {
		row.Neighbors[i] = graph.Node(n.ID)
		row.Summaries[i] = access.NeighborSummary{Degree: n.Degree, Attrs: n.Attrs}
	}
	return row, 0, nil
}

// parseRetryAfter interprets a Retry-After header value: delay-seconds
// or an HTTP-date. Unparseable or past values yield 0 (use backoff).
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// Handler returns the server side of the wire format over st: a
// http.Handler serving GET /v1/neighbors/{id}. It exists for the CI
// smoke test, httptest-backed unit tests, and local demos (any
// histwalk dataset can be served as a fake social API); a real
// deployment adapts its own API to the same JSON shape instead.
func Handler(st graphstore.Store) http.Handler {
	attrNames := st.AttrNames()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/neighbors/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
		if err != nil || id < 0 || id >= int64(st.NumNodes()) {
			http.Error(w, `{"error":"unknown node"}`, http.StatusNotFound)
			return
		}
		u := graph.Node(id)
		row, err := access.StoreRow(st, attrNames, u)
		if err != nil {
			http.Error(w, `{"error":"unknown node"}`, http.StatusNotFound)
			return
		}
		body := nodeJSON{Node: id, Attrs: row.Attrs, Neighbors: make([]neighborJSON, len(row.Neighbors))}
		for i, n := range row.Neighbors {
			nj := neighborJSON{ID: int64(n), Degree: row.Summaries[i].Degree}
			if row.Summaries[i].Attrs != nil {
				nj.Attrs = row.Summaries[i].Attrs
			}
			body.Neighbors[i] = nj
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(body)
	})
	return mux
}
