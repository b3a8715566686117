package access

// The middle layer of the pipelined access stack: a Prefetcher wraps
// any Transport with a shared row cache, single-flight dedup across
// chains, and windowed speculative frontier prefetch. Chains talk to
// it through per-chain PipeViews, whose chain-local accounting is
// bit-identical to a private Simulator's for the same query sequence.
//
// The central rule — the reason the whole layer is admissible under
// the house determinism invariant — is that *prefetch only warms
// caches*. A speculative fetch moves a row into the shared cache
// early; it never answers a question the synchronous path would have
// answered differently, never consumes walker RNG, and never shows up
// in chain-local accounting. Trajectories, RNG consumption order and
// per-chain query costs are therefore bit-identical to the
// synchronous path for any window size, including zero.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"histwalk/internal/graph"
	"histwalk/internal/obs"
)

// warmDepth is how many hops of speculative frontier the Prefetcher
// chases ahead of a hinted candidate set. Depth 1 only overlaps the
// fetch of the walker's immediate candidates with the RNG draw —
// microseconds of cover for a milliseconds-long fetch. The frontier
// can only advance one hop per transport round trip (a row's neighbors
// are unknown until the row arrives — speculation on graphs is pointer
// chasing), so the walk's steady-state stall per fresh hop is roughly
// latency/warmDepth: the fetch of the node demanded now was issued
// when the walk was warmDepth hops away. Depth 8 puts the steady-state
// stall near latency/8 while the in-flight window still bounds the
// total outstanding speculation, so depth cannot stampede the
// transport.
const warmDepth = 8

// warmScanBudget caps how many cache lookups one Warm hint may spend
// pushing the frontier through already-cached territory. Without a cap
// the breadth-first pass could re-traverse the entire cached region on
// every step of a long crawl; with it, a hint costs O(warmScanBudget)
// map probes worst case, while typical hints fill the free window long
// before reaching the cap.
const warmScanBudget = 2048

// Prefetcher is a latency-hiding client layer over any Transport: a
// process-wide row cache with single-flight dedup (K chains demanding
// the same node pay one network fetch) plus speculative warming of
// walker-advertised candidate frontiers, bounded by a configurable
// in-flight window. It is safe for concurrent use; chains access it
// through per-chain PipeViews (see View).
//
// Rows are cached for the Prefetcher's lifetime and never evicted, the
// same local-cache model as the paper's cost accounting (§2.3): the
// fleet pays once per unique node.
type Prefetcher struct {
	t      Transport
	window int

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu   sync.Mutex
	rows map[graph.Node]*rowEntry

	// slots bounds outstanding *speculative* fetches; demand fetches
	// run on the demanding chain's goroutine and are not window-limited
	// (the synchronous path is the floor, never made worse).
	slots chan struct{}

	fetches     atomic.Int64 // network fetches issued (demand + speculative)
	speculative atomic.Int64 // fetches issued speculatively by Warm
	demandMiss  atomic.Int64 // chain-locally-new demands that had to fetch inline
	demandJoin  atomic.Int64 // chain-locally-new demands that joined an in-flight fetch
	demandWarm  atomic.Int64 // chain-locally-new demands served from an already-warm row
}

// rowEntry is one single-flight cache slot: done is closed exactly once
// after row/err are written, so any goroutine that observes the close
// may read them without locking.
type rowEntry struct {
	done chan struct{}
	row  Row
	err  error
}

// NewPrefetcher returns a pipeline over t with the given speculative
// in-flight window. Window 0 disables speculation entirely: the
// pipeline still provides the shared cache and cross-chain
// single-flight dedup, but every network fetch is demand-driven —
// the pipelined equivalent of the synchronous path.
func NewPrefetcher(t Transport, window int) *Prefetcher {
	if window < 0 {
		window = 0
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Prefetcher{
		t:      t,
		window: window,
		ctx:    ctx,
		cancel: cancel,
		rows:   make(map[graph.Node]*rowEntry),
	}
	if window > 0 {
		p.slots = make(chan struct{}, window)
	}
	return p
}

// Transport returns the wrapped transport.
func (p *Prefetcher) Transport() Transport { return p.t }

// Window returns the configured speculative in-flight window.
func (p *Prefetcher) Window() int { return p.window }

// Close cancels all in-flight speculative fetches and waits for their
// goroutines to drain. Demand reads remain answerable from the cache
// after Close, but new fetches will fail with the cancellation error.
func (p *Prefetcher) Close() {
	p.cancel()
	p.wg.Wait()
}

// fetch performs the network fetch for u into e and publishes the
// result. On failure the entry is removed from the cache (after its
// error is published), so a later demand retries the node instead of
// serving a stale speculative error forever. speculative distinguishes
// Warm's window-slot fetches from inline demand fetches in the fetch
// trace spans; both feed the same latency histogram.
func (p *Prefetcher) fetch(u graph.Node, e *rowEntry, speculative bool) {
	p.fetches.Add(1)
	obsFetchTotal.Inc()
	tr := obs.ActiveTracer()
	if tr != nil {
		tr.Emit("fetch.begin", obs.F{"node": int64(u), "speculative": speculative})
	}
	t0 := time.Now()
	row, err := p.t.Fetch(p.ctx, u)
	d := time.Since(t0)
	obsFetchSeconds.Observe(d)
	if tr != nil {
		f := obs.F{"node": int64(u), "speculative": speculative, "secs": d.Seconds()}
		if err != nil {
			f["err"] = err.Error()
		}
		tr.Emit("fetch.end", f)
	}
	if err != nil {
		e.err = err
		close(e.done)
		p.mu.Lock()
		if p.rows[u] == e {
			delete(p.rows, u)
		}
		p.mu.Unlock()
		return
	}
	e.row = row
	close(e.done)
}

// demand returns u's row, fetching it if no fetch is cached or in
// flight (single-flight: concurrent demands for the same node share
// one fetch). It blocks until the row is available and is safe for
// concurrent use. The counted flag tells demand whether this call is a
// chain-locally-new query (views pass false for repeat touches, whose
// rows are guaranteed cached and must not skew the demand statistics).
func (p *Prefetcher) demand(u graph.Node, counted bool) (Row, error) {
	p.mu.Lock()
	e, ok := p.rows[u]
	if !ok {
		e = &rowEntry{done: make(chan struct{})}
		p.rows[u] = e
		p.mu.Unlock()
		if counted {
			p.demandMiss.Add(1)
			obsDemandMiss.Inc()
		}
		// Run the fetch inline: the chain blocks on this row anyway,
		// exactly like the synchronous path.
		p.fetch(u, e, false)
	} else {
		p.mu.Unlock()
		select {
		case <-e.done:
			if counted {
				p.demandWarm.Add(1)
				obsDemandWarm.Inc()
			}
		default:
			if counted {
				p.demandJoin.Add(1)
				obsDemandJoin.Inc()
			}
			<-e.done
		}
	}
	if e.err != nil {
		return Row{}, e.err
	}
	return e.row, nil
}

// cached returns u's row if a successful fetch for it has completed,
// without blocking or fetching.
func (p *Prefetcher) cached(u graph.Node) (Row, bool) {
	p.mu.Lock()
	e, ok := p.rows[u]
	p.mu.Unlock()
	if !ok {
		return Row{}, false
	}
	select {
	case <-e.done:
	default:
		return Row{}, false
	}
	if e.err != nil {
		return Row{}, false
	}
	return e.row, true
}

// Warm hints that the nodes in ns are candidates for upcoming demand
// reads (a walker's next-step candidate set) and speculatively fetches
// the ones not already cached or in flight, up to the free capacity of
// the in-flight window; when the window is full the remaining hints
// are dropped, not queued. Warmed rows recursively warm their own
// neighbors one level further (warmDepth), which is how speculation
// runs ahead of the walk. Warm never blocks on the network, consumes
// no RNG and touches no accounting: it only moves rows into the shared
// cache early. ns is not retained.
func (p *Prefetcher) Warm(ns []graph.Node) { p.warm(ns, warmDepth) }

// warm breadth-first-walks the hinted frontier out to depth hops,
// spawning a speculative fetch for every uncached node it meets (up to
// the free window) and passing fetch-free through rows that are
// already cached — that pass-through is what keeps the wave warmDepth
// hops ahead of the walk even when the walk moves through long-cached
// territory. In-flight rows are not traversed (their neighbor lists
// are unknown until they land) and fetch completions deliberately do
// NOT push further themselves: every hint re-walks the region fresh,
// so free slots always go to the nodes currently nearest the walk
// instead of to wherever an old fetch happened to finish. Dropped
// hints cost nothing — the next step's hint retries them. A visited
// set plus warmScanBudget bound the traversal cost per hint.
func (p *Prefetcher) warm(ns []graph.Node, depth int) {
	if p.window <= 0 || depth <= 0 {
		return
	}
	seen := make(map[graph.Node]struct{}, 2*len(ns))
	scanned := 0
	frontier := ns
	for d := depth; d > 0 && len(frontier) > 0; d-- {
		var next []graph.Node
		for _, u := range frontier {
			if _, dup := seen[u]; dup {
				continue
			}
			if scanned >= warmScanBudget {
				return
			}
			scanned++
			seen[u] = struct{}{}
			p.mu.Lock()
			e, ok := p.rows[u]
			p.mu.Unlock()
			if ok {
				if d > 1 {
					select {
					case <-e.done:
						if e.err == nil {
							next = append(next, e.row.Neighbors...)
						}
					default:
						// In flight — its completion pushes further.
					}
				}
				continue
			}
			select {
			case p.slots <- struct{}{}:
				obsFetchInflight.Add(1)
			default:
				return // window full — drop the rest of the hint
			}
			p.mu.Lock()
			if _, raced := p.rows[u]; raced {
				p.mu.Unlock()
				<-p.slots
				obsFetchInflight.Add(-1)
				continue // a sibling inserted u between the lookup and here
			}
			e = &rowEntry{done: make(chan struct{})}
			p.rows[u] = e
			p.mu.Unlock()
			p.speculative.Add(1)
			obsFetchSpeculative.Inc()
			p.wg.Add(1)
			go func(u graph.Node, e *rowEntry) {
				defer p.wg.Done()
				defer func() {
					<-p.slots
					obsFetchInflight.Add(-1)
				}()
				p.fetch(u, e, true)
			}(u, e)
		}
		frontier = next
	}
}

// PipelineStats is a snapshot of a Prefetcher's network-side counters.
// Chain-local accounting lives in the per-chain views; these counters
// describe what the fleet's shared pipeline actually did on the wire.
// Note that unlike the synchronous shared cache, network fetches can
// exceed the number of distinct demanded nodes: speculation may fetch
// rows the walk never visits. That waste buys wall-clock time, not
// correctness — demanded-row accounting stays exact.
type PipelineStats struct {
	// NetworkFetches is every fetch issued to the transport, demand and
	// speculative alike — the wire cost the fleet actually paid.
	NetworkFetches int `json:"network_fetches"`
	// SpeculativeFetches is how many of those were issued by Warm.
	SpeculativeFetches int `json:"speculative_fetches"`
	// DemandMisses counts chain-locally-new demands that found nothing
	// cached or in flight and fetched inline (full synchronous stall).
	DemandMisses int `json:"demand_misses"`
	// DemandJoined counts chain-locally-new demands that joined a fetch
	// already in flight (partial stall), whether speculative or a
	// sibling chain's demand.
	DemandJoined int `json:"demand_joined"`
	// DemandWarm counts chain-locally-new demands served instantly from
	// an already-completed row (no stall at all).
	DemandWarm int `json:"demand_warm"`
}

// DemandSaves returns how many chain-locally-new demands avoided a
// full synchronous fetch — the pipelined analogue of the shared
// cache's cross-chain hits, except the savers include this pipeline's
// own speculation.
func (st PipelineStats) DemandSaves() int { return st.DemandJoined + st.DemandWarm }

// Stats returns a snapshot of the pipeline's network-side counters.
// The snapshot is exact at quiescence; taken concurrently with traffic
// the individual counters are each atomically read but not mutually
// consistent.
func (p *Prefetcher) Stats() PipelineStats {
	return PipelineStats{
		NetworkFetches:     int(p.fetches.Load()),
		SpeculativeFetches: int(p.speculative.Load()),
		DemandMisses:       int(p.demandMiss.Load()),
		DemandJoined:       int(p.demandJoin.Load()),
		DemandWarm:         int(p.demandWarm.Load()),
	}
}

// View returns a new per-chain Client over the pipeline. Views may be
// taken and used from different goroutines concurrently; each View
// itself is confined to one chain (not safe for concurrent use),
// exactly like a private Simulator.
func (p *Prefetcher) View() *PipeView {
	return &PipeView{p: p, queried: make(map[graph.Node]bool)}
}

// PipeView is one chain's window onto a Prefetcher. It implements
// Client with chain-local accounting replicated from Simulator.touch:
// a failed fetch counts nothing; a successful touch counts one request,
// and one unique query iff this chain had not queried the node before.
// QueryCost, TotalRequests and IsCached therefore report exactly what
// a private Simulator would for the same query sequence — the walker-
// visible surface is independent of the window size, of speculation,
// and of what sibling chains are doing.
type PipeView struct {
	p       *Prefetcher
	queried map[graph.Node]bool
	unique  int
	total   int
}

// Pipeline returns the Prefetcher this view draws from.
func (v *PipeView) Pipeline() *Prefetcher { return v.p }

// Warm forwards a candidate-frontier hint to the pipeline. It is
// accounting-free and safe to call with any nodes at any time.
func (v *PipeView) Warm(ns []graph.Node) { v.p.Warm(ns) }

// touch obtains u's row and applies chain-local accounting in
// Simulator.touch's exact order: error first (nothing counted), then
// the request, then uniqueness.
func (v *PipeView) touch(u graph.Node) (Row, error) {
	fresh := !v.queried[u]
	var row Row
	if !fresh {
		// A chain-queried node's row is always cached (rows are never
		// evicted after success), so serve it without touching the
		// pipeline's demand statistics; fall through to a counted
		// demand only in the impossible case.
		var ok bool
		if row, ok = v.p.cached(u); ok {
			v.total++
			return row, nil
		}
	}
	row, err := v.p.demand(u, fresh)
	if err != nil {
		return Row{}, err
	}
	v.total++
	if fresh {
		v.queried[u] = true
		v.unique++
	}
	return row, nil
}

// Neighbors implements Client. The returned slice aliases the cached
// row and must not be modified by the caller.
func (v *PipeView) Neighbors(u graph.Node) ([]graph.Node, error) {
	row, err := v.touch(u)
	if err != nil {
		return nil, err
	}
	return row.Neighbors, nil
}

// NeighborsAppend implements Client: the row's neighbor list is copied
// onto dst, never aliasing the shared cache.
func (v *PipeView) NeighborsAppend(dst []graph.Node, u graph.Node) ([]graph.Node, error) {
	row, err := v.touch(u)
	if err != nil {
		return dst, err
	}
	return append(dst, row.Neighbors...), nil
}

// Degree implements Client: the length of the full neighbor list that
// came back in the response (self-loops appear once in the row, as in
// the store convention, so this matches the store's Degree).
func (v *PipeView) Degree(u graph.Node) (int, error) {
	row, err := v.touch(u)
	if err != nil {
		return 0, err
	}
	return len(row.Neighbors), nil
}

// Attribute implements Client. Unknown attribute names are an error.
func (v *PipeView) Attribute(u graph.Node, name string) (float64, error) {
	row, err := v.touch(u)
	if err != nil {
		return 0, err
	}
	x, ok := row.Attrs[name]
	if !ok {
		return 0, fmt.Errorf("access: unknown attribute %q", name)
	}
	return x, nil
}

// summary locates w in owner's cached neighbor-list summary, under the
// same chain-local preconditions as Simulator: owner must have been
// queried by THIS chain (another chain's fetch does not expose summary
// data to this one — accounting parity requires the chain-local view),
// and w must appear in owner's neighbor list.
func (v *PipeView) summary(owner, w graph.Node) (NeighborSummary, error) {
	if !v.queried[owner] {
		return NeighborSummary{}, fmt.Errorf("%w: owner %d not queried", ErrNotInSummary, owner)
	}
	row, ok := v.p.cached(owner)
	if !ok {
		// Unreachable: chain-queried rows are never evicted.
		return NeighborSummary{}, fmt.Errorf("%w: owner %d not queried", ErrNotInSummary, owner)
	}
	for i, n := range row.Neighbors {
		if n == w {
			if row.Summaries == nil {
				return NeighborSummary{}, fmt.Errorf("%w: transport returns no neighbor summaries", ErrNotInSummary)
			}
			return row.Summaries[i], nil
		}
	}
	return NeighborSummary{}, fmt.Errorf("%w: %d is not a neighbor of %d", ErrNotInSummary, w, owner)
}

// SummaryAttr implements Client: w's attribute from owner's neighbor
// list summary, free of query cost.
func (v *PipeView) SummaryAttr(owner, w graph.Node, name string) (float64, error) {
	s, err := v.summary(owner, w)
	if err != nil {
		return 0, err
	}
	x, ok := s.Attrs[name]
	if !ok {
		return 0, fmt.Errorf("access: unknown attribute %q", name)
	}
	return x, nil
}

// SummaryDegree implements Client: w's degree from owner's neighbor
// list summary, free of query cost.
func (v *PipeView) SummaryDegree(owner, w graph.Node) (int, error) {
	s, err := v.summary(owner, w)
	if err != nil {
		return 0, err
	}
	return s.Degree, nil
}

// QueryCost implements Client: this chain's unique queries.
func (v *PipeView) QueryCost() int { return v.unique }

// IsCached implements CacheAware against this chain's own query set,
// like a private Simulator — NOT the shared row cache, so Budgeted
// admission decisions are bit-identical to isolated mode.
func (v *PipeView) IsCached(u graph.Node) bool { return v.queried[u] }

// TotalRequests returns all of this chain's requests including
// chain-local cache hits.
func (v *PipeView) TotalRequests() int { return v.total }
