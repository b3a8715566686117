package histwalk

// Re-exports of the pipelined access layer (internal/access and
// internal/access/httpclient): the context-aware Transport seam, the
// latency-hiding Prefetcher with speculative frontier prefetch and
// cross-chain single-flight dedup, and the live HTTP JSON
// neighbor-list transport. Specs select the layer with the Transport,
// Window and Latency fields; these exports are for callers composing
// the pieces directly.

import (
	"time"

	"histwalk/internal/access"
	"histwalk/internal/access/httpclient"
	"histwalk/internal/graphstore"
)

// Pipelined access layer types.
type (
	// Transport is one context-aware neighborhood fetch against a
	// remote interface — the bottom seam of the pipelined access
	// layer. SimTransport and the HTTP client implement it.
	Transport = access.Transport
	// Row is one neighborhood response in wire form: neighbors, the
	// node's attributes, and free per-neighbor summaries.
	Row = access.Row
	// NeighborSummary is the free summary data of one listed neighbor.
	NeighborSummary = access.NeighborSummary
	// SimTransport is a concurrency-safe Transport over a graph store
	// with an optional fixed per-fetch latency, for latency-hiding
	// measurements without a network.
	SimTransport = access.SimTransport
	// Prefetcher wraps any Transport with a shared row cache,
	// cross-chain single-flight dedup and windowed speculative
	// frontier prefetch; chains read through per-chain PipeViews.
	Prefetcher = access.Prefetcher
	// PipeView is one chain's Client over a Prefetcher, with
	// chain-local accounting bit-identical to a private Simulator's.
	PipeView = access.PipeView
	// PipelineStats snapshots a Prefetcher's network-side counters.
	PipelineStats = access.PipelineStats
	// HTTPTransportConfig configures an HTTP transport: endpoint URL,
	// auth header, retry/backoff tuning.
	HTTPTransportConfig = httpclient.Config
	// HTTPTransport is the live Transport over a JSON neighbor-list
	// endpoint, with jittered-backoff retries honoring Retry-After.
	HTTPTransport = httpclient.Client
)

// NewSimTransport returns a transport serving rows from st, delaying
// every fetch by latency (0 = none).
func NewSimTransport(st graphstore.Store, latency time.Duration) *SimTransport {
	return access.NewSimTransport(st, latency)
}

// NewPrefetcher returns a pipeline over t with the given speculative
// in-flight window (0 = demand-driven only).
func NewPrefetcher(t Transport, window int) *Prefetcher {
	return access.NewPrefetcher(t, window)
}

// NewHTTPTransport returns a Transport crawling a live JSON
// neighbor-list endpoint (see internal/access/httpclient for the wire
// format).
func NewHTTPTransport(cfg HTTPTransportConfig) (*HTTPTransport, error) {
	return httpclient.New(cfg)
}

// HTTPTransportHandler returns the server side of the HTTP transport's
// wire format over a graph store — any histwalk dataset served as a
// fake social API, for tests, smoke runs and demos.
var HTTPTransportHandler = httpclient.Handler
