// Package access simulates the restrictive web/API interface of an
// online social network, exactly as modeled in §2.1 of the paper:
//
//   - the only topology query available takes a user (node) ID and
//     returns the set of all its neighbors, plus the node's attributes;
//   - the dominant cost is the number of *unique* queries issued, since
//     any duplicate query "can be immediately retrieved from local cache
//     without consuming the query rate limit" (§2.3);
//   - real OSNs enforce query-rate limits (e.g. Twitter's 15 calls per
//     15 minutes), which a token-bucket RateLimiter can simulate.
//
// Walkers talk only to a Client, never to the underlying graph, so the
// query-cost accounting in experiments is exact and the walkers would
// work unchanged over a real transport.
package access

import (
	"errors"
	"fmt"
	"math/bits"

	"histwalk/internal/graph"
)

// ErrUnknownNode is returned when a query names a node outside the
// network.
var ErrUnknownNode = errors.New("access: unknown node")

// ErrBudgetExhausted is returned by budget-limited clients once the
// unique-query budget has been spent.
var ErrBudgetExhausted = errors.New("access: query budget exhausted")

// ErrNotInSummary is returned by the Summary* methods when the requested
// neighbor relation does not hold (w is not a neighbor of owner, or
// owner has not been queried yet), so no free summary data is available.
var ErrNotInSummary = errors.New("access: node not present in a cached neighbor-list summary")

// Client is the neighborhood-query interface available to a third party
// (§2.1). Implementations must treat repeated queries for the same node
// as cache hits that do not increase QueryCost, and must return a
// node's neighbor list in a stable order: repeated queries for the same
// node yield element-wise identical lists. The walkers' deterministic
// replay (and their per-edge history state, which indexes neighbor
// lists by position) depends on that stability.
type Client interface {
	// Neighbors returns the neighbor list of u. The slice must not be
	// modified by the caller.
	Neighbors(u graph.Node) ([]graph.Node, error)
	// NeighborsAppend appends u's neighbor list to dst and returns the
	// extended slice. It is the allocation-free form of Neighbors for
	// hot paths: the caller owns dst and the returned slice aliases
	// dst's backing array (grown if needed), NEVER the client's
	// internal storage — so callers may retain and modify it freely,
	// and transports that cannot hand out stable internal slices can
	// still serve it without allocating. Cost accounting is identical
	// to Neighbors (one unique query on first touch, a free cache hit
	// after). On error the returned slice is dst with nothing appended,
	// so callers keep their buffer.
	NeighborsAppend(dst []graph.Node, u graph.Node) ([]graph.Node, error)
	// Degree returns k_u = |N(u)|. It costs the same query as Neighbors
	// (the full neighbor list comes back in one response).
	Degree(u graph.Node) (int, error)
	// Attribute returns u's value of a named profile attribute. Profile
	// attributes ride along with the neighborhood response (§2.1), so
	// this issues the same single query as Neighbors.
	Attribute(u graph.Node, name string) (float64, error)
	// SummaryAttr returns the value of w's attribute as shown in the
	// *neighbor-list summary* of owner's neighborhood response. Real OSN
	// list endpoints (Twitter followers/list, Google+ circles) return
	// rich user objects for each listed neighbor, so this information is
	// free: it does not consume query budget. It is only available when
	// owner has already been queried and w is one of owner's neighbors;
	// otherwise ErrNotInSummary is returned. GNRW's grouping strategies
	// rely on exactly this data (§4.1).
	SummaryAttr(owner, w graph.Node, name string) (float64, error)
	// SummaryDegree returns w's degree (follower/friend count) from
	// owner's neighbor-list summary, under the same free-of-charge
	// conditions as SummaryAttr. MHRW's acceptance test uses it.
	SummaryDegree(owner, w graph.Node) (int, error)
	// QueryCost returns the number of unique queries issued so far.
	QueryCost() int
}

// Ledger is one chain's query accounting under the paper's cost rule
// (§2.3): every query is one request, and a query costs one unique
// query only the first time the chain asks for its key. Keys are small
// non-negative integers held in a bitset: node IDs for a Simulator,
// which sizes the bitset to its store up front, and row-entry indexes
// for a PipeView, whose bitset grows with the rows its Prefetcher has
// fetched. A Ledger is not safe for concurrent use.
type Ledger struct {
	bits   []uint64 // bit k%64 of word k/64 is set once key k was queried
	unique int
	total  int
}

// has reports whether key k was queried before.
func (l *Ledger) has(k int) bool {
	w := uint(k >> 6)
	return w < uint(len(l.bits)) && l.bits[w]&(1<<(k&63)) != 0
}

// charge records one request for key k >= 0 and reports whether k was
// new to the ledger, which costs one unique query.
func (l *Ledger) charge(k int) bool {
	w := k >> 6
	if w >= len(l.bits) {
		l.bits = append(l.bits, make([]uint64, w+1-len(l.bits))...)
	}
	l.total++
	bit := uint64(1) << (k & 63)
	if l.bits[w]&bit != 0 {
		return false
	}
	l.bits[w] |= bit
	l.unique++
	return true
}

// QueryCost implements Client: the number of unique queries so far.
func (l *Ledger) QueryCost() int { return l.unique }

// TotalRequests returns all requests including cache hits, for
// measuring cache effectiveness.
func (l *Ledger) TotalRequests() int { return l.total }

// UniqueAcross returns how many distinct keys the ledgers hold between
// them: the unique-query cost a fleet sharing one local cache would
// have paid the network (§2.3), where each ledger's QueryCost is what
// its own chain paid. The ledgers must key the same way: Simulators
// over one store, or PipeViews of one Prefetcher.
func UniqueAcross(ls []*Ledger) int {
	words := 0
	for _, l := range ls {
		words = max(words, len(l.bits))
	}
	n := 0
	for w := range words {
		var word uint64
		for _, l := range ls {
			if w < len(l.bits) {
				word |= l.bits[w]
			}
		}
		n += bits.OnesCount64(word)
	}
	return n
}

// Simulator is a Client backed by a graph — built in memory or opened
// from a memory-mapped .hwg file; the choice is invisible to walkers,
// whose trajectories and query costs are bit-identical for a fixed
// seed either way (both serve the same sorted rows from the same CSR
// shape). It caches responses and counts unique queries in its Ledger,
// keyed by node ID. Simulator is not safe for concurrent use;
// experiments give each trial its own instance.
type Simulator struct {
	Ledger
	g       *graph.Graph
	limiter *RateLimiter
}

// NewSimulator returns a Simulator over g with no rate limit.
func NewSimulator(g *graph.Graph) *Simulator {
	return &Simulator{Ledger: Ledger{bits: make([]uint64, (g.NumNodes()+63)/64)}, g: g}
}

// SetRateLimiter installs a rate limiter applied to unique queries
// (cache hits are free, as in a real crawler). Pass nil to remove.
func (s *Simulator) SetRateLimiter(rl *RateLimiter) { s.limiter = rl }

// touch registers a query against u, counting it only if new.
func (s *Simulator) touch(u graph.Node) error {
	if u < 0 || int(u) >= s.g.NumNodes() {
		return fmt.Errorf("%w: %d", ErrUnknownNode, u)
	}
	if s.charge(int(u)) && s.limiter != nil {
		s.limiter.Take()
	}
	return nil
}

// Neighbors implements Client.
func (s *Simulator) Neighbors(u graph.Node) ([]graph.Node, error) {
	if err := s.touch(u); err != nil {
		return nil, err
	}
	return s.g.Neighbors(u), nil
}

// NeighborsAppend implements Client: u's neighbor list is copied onto
// dst straight from the graph's CSR row, no intermediate allocation.
func (s *Simulator) NeighborsAppend(dst []graph.Node, u graph.Node) ([]graph.Node, error) {
	if err := s.touch(u); err != nil {
		return dst, err
	}
	return append(dst, s.g.Neighbors(u)...), nil
}

// Degree implements Client.
func (s *Simulator) Degree(u graph.Node) (int, error) {
	if err := s.touch(u); err != nil {
		return 0, err
	}
	return s.g.Degree(u), nil
}

// Attribute implements Client. Unknown attribute names are an error.
func (s *Simulator) Attribute(u graph.Node, name string) (float64, error) {
	if err := s.touch(u); err != nil {
		return 0, err
	}
	x, ok := s.g.AttrValue(name, u)
	if !ok {
		return 0, fmt.Errorf("access: unknown attribute %q", name)
	}
	return x, nil
}

// summaryCheck validates that owner has been queried and w is a
// neighbor of owner, the precondition for free summary data.
func (s *Simulator) summaryCheck(owner, w graph.Node) error {
	if owner < 0 || int(owner) >= s.g.NumNodes() {
		return fmt.Errorf("%w: %d", ErrUnknownNode, owner)
	}
	if !s.has(int(owner)) {
		return fmt.Errorf("%w: owner %d not queried", ErrNotInSummary, owner)
	}
	if !s.g.HasEdge(owner, w) {
		return fmt.Errorf("%w: %d is not a neighbor of %d", ErrNotInSummary, w, owner)
	}
	return nil
}

// SummaryAttr implements Client: w's attribute from owner's neighbor
// list summary, free of query cost.
func (s *Simulator) SummaryAttr(owner, w graph.Node, name string) (float64, error) {
	if err := s.summaryCheck(owner, w); err != nil {
		return 0, err
	}
	x, ok := s.g.AttrValue(name, w)
	if !ok {
		return 0, fmt.Errorf("access: unknown attribute %q", name)
	}
	return x, nil
}

// SummaryDegree implements Client: w's degree from owner's neighbor list
// summary, free of query cost.
func (s *Simulator) SummaryDegree(owner, w graph.Node) (int, error) {
	if err := s.summaryCheck(owner, w); err != nil {
		return 0, err
	}
	return s.g.Degree(w), nil
}

// IsCached reports whether u has been queried before (a further query
// for u is free).
func (s *Simulator) IsCached(u graph.Node) bool {
	return u >= 0 && int(u) < s.g.NumNodes() && s.has(int(u))
}

// Reset clears the cache, the counters and the installed rate limiter's
// state (the graph and the limiter installation are retained). A reused
// simulator therefore starts each run with a full token bucket and zero
// virtual wait, like a fresh one.
func (s *Simulator) Reset() {
	clear(s.bits)
	s.unique, s.total = 0, 0
	if s.limiter != nil {
		s.limiter.Reset()
	}
}

// CacheAware is implemented by clients that can report whether a node is
// already in the local cache (so re-querying it is free).
type CacheAware interface {
	IsCached(u graph.Node) bool
}

// Budgeted wraps a Client and fails queries for *new* nodes once the
// unique-query budget is exhausted. Cached nodes remain accessible, as a
// real crawler's local cache would. If the inner client does not
// implement CacheAware, all queries are refused once the budget is
// spent.
type Budgeted struct {
	inner  Client
	budget int
}

// NewBudgeted wraps inner with a unique-query budget.
func NewBudgeted(inner Client, budget int) *Budgeted {
	return &Budgeted{inner: inner, budget: budget}
}

// guard returns ErrBudgetExhausted if issuing a query for u would exceed
// the budget.
func (b *Budgeted) guard(u graph.Node) error {
	if b.inner.QueryCost() < b.budget {
		return nil
	}
	if ca, ok := b.inner.(CacheAware); ok && ca.IsCached(u) {
		return nil // free cache hit
	}
	return ErrBudgetExhausted
}

// Neighbors implements Client.
func (b *Budgeted) Neighbors(u graph.Node) ([]graph.Node, error) {
	if err := b.guard(u); err != nil {
		return nil, err
	}
	return b.inner.Neighbors(u)
}

// NeighborsAppend implements Client, under the same budget rule as
// Neighbors; on refusal dst is returned unchanged.
func (b *Budgeted) NeighborsAppend(dst []graph.Node, u graph.Node) ([]graph.Node, error) {
	if err := b.guard(u); err != nil {
		return dst, err
	}
	return b.inner.NeighborsAppend(dst, u)
}

// Degree implements Client.
func (b *Budgeted) Degree(u graph.Node) (int, error) {
	if err := b.guard(u); err != nil {
		return 0, err
	}
	return b.inner.Degree(u)
}

// Attribute implements Client.
func (b *Budgeted) Attribute(u graph.Node, name string) (float64, error) {
	if err := b.guard(u); err != nil {
		return 0, err
	}
	return b.inner.Attribute(u, name)
}

// SummaryAttr implements Client. Summary data rides along with owner's
// cached neighborhood response, so it stays free as long as that
// response is (or can still be) obtained: once the budget is spent and
// owner is not in the cache, the call reports ErrBudgetExhausted like
// every other method, instead of leaking the inner client's
// ErrNotInSummary.
func (b *Budgeted) SummaryAttr(owner, w graph.Node, name string) (float64, error) {
	if err := b.guard(owner); err != nil {
		return 0, err
	}
	return b.inner.SummaryAttr(owner, w, name)
}

// SummaryDegree implements Client, under the same budget rule as
// SummaryAttr.
func (b *Budgeted) SummaryDegree(owner, w graph.Node) (int, error) {
	if err := b.guard(owner); err != nil {
		return 0, err
	}
	return b.inner.SummaryDegree(owner, w)
}

// QueryCost implements Client.
func (b *Budgeted) QueryCost() int { return b.inner.QueryCost() }

// Remaining returns how many unique queries are left in the budget
// (never negative).
func (b *Budgeted) Remaining() int {
	r := b.budget - b.inner.QueryCost()
	if r < 0 {
		return 0
	}
	return r
}
