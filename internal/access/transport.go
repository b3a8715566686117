package access

// The transport seam of the pipelined access layer. A Transport is the
// lowest layer of the access stack: one context-aware neighborhood
// fetch against the remote interface, with no caching, no accounting
// and no ordering discipline — those belong to the layers above
// (Prefetcher / per-chain views). SimTransport implements it over any
// graph store; internal/access/httpclient implements it for real
// against a JSON neighbor-list endpoint.
//
// Layering (bottom to top):
//
//	Transport   Fetch(ctx, node) → Row     one wire round trip
//	Prefetcher  shared row cache, single-flight dedup across chains,
//	            windowed speculative frontier prefetch
//	PipeView    per-chain access.Client with chain-local accounting
//	            bit-identical to a private Simulator's
//
// The house invariant holds at this seam: a Transport only moves
// bytes, so nothing it does (latency, retries, speculative fetches
// issued on its behalf) can change a walker's trajectory, RNG
// consumption or chain-local query cost.

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"histwalk/internal/graph"
)

// Row is one neighborhood response in wire form — exactly the data the
// paper's restricted query interface returns for a node (§2.1): the
// full neighbor list, the node's own profile attributes, and the free
// neighbor-list summaries (degree and attributes of each listed
// neighbor) that real OSN list endpoints include as rich user objects.
// A Row is immutable once returned from Fetch: the pipeline caches and
// shares it across chains, so producers must never mutate a returned
// row's slices or maps.
type Row struct {
	// Neighbors is the node's complete neighbor list in the transport's
	// stable order (repeated fetches of the same node must yield
	// element-wise identical lists — the Client stability contract
	// starts here).
	Neighbors []graph.Node
	// Attrs holds the queried node's own profile attributes (nil when
	// the network exposes none).
	Attrs map[string]float64
	// Summaries is the free per-neighbor summary data, aligned
	// index-for-index with Neighbors; nil when the transport returns no
	// summaries (MHRW and the summary-driven GNRW groupers then cannot
	// run over this transport).
	Summaries []NeighborSummary
}

// NeighborSummary is the rich-user-object summary of one listed
// neighbor: the free data MHRW's acceptance test and GNRW's grouping
// strategies read without spending query budget (§2.1, §4.1).
type NeighborSummary struct {
	// Degree is the neighbor's degree (follower/friend count).
	Degree int
	// Attrs holds the neighbor's profile attributes (nil when none).
	Attrs map[string]float64
}

// Transport is one context-aware neighborhood fetch against the remote
// interface: the bottom seam of the pipelined access layer. Fetch must
// be safe for concurrent use — the Prefetcher issues speculative
// fetches from multiple goroutines — and must return rows with a
// stable neighbor order across repeated fetches of the same node.
// Implementations report a node outside the network with an error
// wrapping ErrUnknownNode.
type Transport interface {
	Fetch(ctx context.Context, u graph.Node) (Row, error)
}

// NodeCounter is optionally implemented by transports that know the
// size of the network they front (the simulated ones). The session
// layer uses it to draw random start nodes exactly as Graph mode does;
// transports without it (a live HTTP endpoint) require an explicit
// start node.
type NodeCounter interface {
	NumNodes() int
}

// StoreRow materializes node u's wire-form Row from graph g: the CSR
// neighbor row (aliased zero-copy — rows are stable for the graph's
// lifetime), the node's attributes, and the full per-neighbor summary
// set. attrNames lists g's registered attributes (pass g.AttrNames();
// precomputing it keeps per-fetch work linear in the row). It is the
// shared row builder behind the simulator transports and the
// httpclient test server.
func StoreRow(g *graph.Graph, attrNames []string, u graph.Node) (Row, error) {
	if u < 0 || int(u) >= g.NumNodes() {
		return Row{}, fmt.Errorf("%w: %d", ErrUnknownNode, u)
	}
	ns := g.Neighbors(u)
	row := Row{
		Neighbors: ns,
		Summaries: make([]NeighborSummary, len(ns)),
	}
	if len(attrNames) > 0 {
		row.Attrs = make(map[string]float64, len(attrNames))
		for _, name := range attrNames {
			if x, ok := g.AttrValue(name, u); ok {
				row.Attrs[name] = x
			}
		}
	}
	for i, w := range ns {
		s := NeighborSummary{Degree: g.Degree(w)}
		if len(attrNames) > 0 {
			s.Attrs = make(map[string]float64, len(attrNames))
			for _, name := range attrNames {
				if x, ok := g.AttrValue(name, w); ok {
					s.Attrs[name] = x
				}
			}
		}
		row.Summaries[i] = s
	}
	return row, nil
}

// SimTransport is a Transport over a graph with an optional
// fixed per-fetch latency — the simulated-network bottom layer of the
// pipeline, standing in for a real rate-limited API so latency-hiding
// can be measured (and the pipeline's bit-identity to the synchronous
// path pinned) without a network. It is safe for concurrent use; the
// only mutable state is the atomic fetch counter.
type SimTransport struct {
	g         *graph.Graph
	latency   time.Duration
	attrNames []string
	fetches   atomic.Int64
}

// NewSimTransport returns a transport serving rows from g, delaying
// every Fetch by latency (0 = no delay).
func NewSimTransport(g *graph.Graph, latency time.Duration) *SimTransport {
	return &SimTransport{g: g, latency: latency, attrNames: g.AttrNames()}
}

// NumNodes implements NodeCounter.
func (t *SimTransport) NumNodes() int { return t.g.NumNodes() }

// Fetches returns how many Fetch calls reached the simulated network —
// the wall-clock-relevant cost a Prefetcher's speculation actually
// paid, including fetches whose rows were never demanded.
func (t *SimTransport) Fetches() int { return int(t.fetches.Load()) }

// Fetch implements Transport: node u's row after the configured
// latency, honoring ctx cancellation during the wait.
func (t *SimTransport) Fetch(ctx context.Context, u graph.Node) (Row, error) {
	if u < 0 || int(u) >= t.g.NumNodes() {
		return Row{}, fmt.Errorf("%w: %d", ErrUnknownNode, u)
	}
	t.fetches.Add(1)
	if t.latency > 0 {
		timer := time.NewTimer(t.latency)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return Row{}, context.Cause(ctx)
		}
	} else if err := ctx.Err(); err != nil {
		return Row{}, context.Cause(ctx)
	}
	return StoreRow(t.g, t.attrNames, u)
}
