package access

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"histwalk/internal/graph"
)

// TestPipeViewMatchesSimulator replays a mixed query script against a
// PipeView and a private Simulator and requires identical chain-local
// accounting and identical answers — the invariant the whole pipelined
// mode stands on.
func TestPipeViewMatchesSimulator(t *testing.T) {
	g := testGraph(t)
	p := NewPrefetcher(NewSimTransport(g, 0), 8)
	defer p.Close()
	view := p.View()
	sim := NewSimulator(g)

	type probe func(c Client) (any, error)
	script := []struct {
		name string
		run  probe
	}{
		{"neighbors(0)", func(c Client) (any, error) { ns, err := c.Neighbors(0); return fmt.Sprint(ns), err }},
		{"degree(1)", func(c Client) (any, error) { return c.Degree(1) }},
		{"neighbors(0) repeat", func(c Client) (any, error) { ns, err := c.Neighbors(0); return fmt.Sprint(ns), err }},
		{"attr(2)", func(c Client) (any, error) { return c.Attribute(2, "age") }},
		{"attr unknown name", func(c Client) (any, error) { return c.Attribute(2, "nope") }},
		{"summary degree(0,1)", func(c Client) (any, error) { return c.SummaryDegree(0, 1) }},
		{"summary attr(0,3)", func(c Client) (any, error) { return c.SummaryAttr(0, 3, "age") }},
		{"summary unqueried owner", func(c Client) (any, error) { return c.SummaryDegree(4, 0) }},
		{"unknown node", func(c Client) (any, error) { return c.Degree(99) }},
		{"negative node", func(c Client) (any, error) { return c.Degree(-1) }},
		{"append(3)", func(c Client) (any, error) {
			ns, err := c.NeighborsAppend(nil, 3)
			return fmt.Sprint(ns), err
		}},
	}
	for _, s := range script {
		gotV, errV := s.run(view)
		gotS, errS := s.run(sim)
		if (errV == nil) != (errS == nil) {
			t.Fatalf("%s: error mismatch: view=%v sim=%v", s.name, errV, errS)
		}
		if errV != nil {
			if errors.Is(errS, ErrUnknownNode) != errors.Is(errV, ErrUnknownNode) ||
				errors.Is(errS, ErrNotInSummary) != errors.Is(errV, ErrNotInSummary) {
				t.Fatalf("%s: error kind mismatch: view=%v sim=%v", s.name, errV, errS)
			}
		} else if gotV != gotS {
			t.Fatalf("%s: answer mismatch: view=%v sim=%v", s.name, gotV, gotS)
		}
		if view.QueryCost() != sim.QueryCost() || view.TotalRequests() != sim.TotalRequests() {
			t.Fatalf("%s: accounting diverged: view %d/%d sim %d/%d", s.name,
				view.QueryCost(), view.TotalRequests(), sim.QueryCost(), sim.TotalRequests())
		}
	}
	for u := graph.Node(0); u < 5; u++ {
		if view.IsCached(u) != sim.IsCached(u) {
			t.Fatalf("IsCached(%d) diverged", u)
		}
	}
}

// TestPipeViewLedgerFarNodeIDs crawls a transport whose node IDs sit
// near 2^31. The view's ledger is keyed by row entry, so it stays one
// word where a bitset keyed by node ID would need 256 MiB, and it
// counts cost and requests exactly as a Simulator over the same graph
// under small IDs does.
func TestPipeViewLedgerFarNodeIDs(t *testing.T) {
	g := testGraph(t)
	p := NewPrefetcher(farTransport{NewSimTransport(g, 0)}, 4)
	defer p.Close()
	view := p.View()
	sim := NewSimulator(g)
	view.Warm([]graph.Node{far(2)}) // speculation inserts entries too
	for _, u := range []graph.Node{0, 3, 0, 4, 9, 3, 1, -1, 1} {
		nsV, errV := view.Neighbors(far(u))
		nsS, errS := sim.Neighbors(u)
		if (errV == nil) != (errS == nil) {
			t.Fatalf("node %d: error mismatch: view=%v sim=%v", u, errV, errS)
		}
		for i := range nsS {
			if nsV[i] != far(nsS[i]) {
				t.Fatalf("node %d: neighbors %v, want %v relabeled", u, nsV, nsS)
			}
		}
		if view.QueryCost() != sim.QueryCost() || view.TotalRequests() != sim.TotalRequests() {
			t.Fatalf("node %d: accounting diverged: view %d/%d sim %d/%d", u,
				view.QueryCost(), view.TotalRequests(), sim.QueryCost(), sim.TotalRequests())
		}
	}
	if len(view.bits) != 1 {
		t.Fatalf("ledger holds %d words, want 1", len(view.bits))
	}
	// Six demands were new to the chain, two of them failed fetches;
	// the three repeats stay out of the demand statistics.
	if st := p.Stats(); st.DemandMisses+st.DemandJoined+st.DemandWarm != 6 {
		t.Fatalf("stats = %+v, want 6 chain-locally-new demands", st)
	}
	for u := graph.Node(0); u < 5; u++ {
		if view.IsCached(far(u)) != sim.IsCached(u) {
			t.Fatalf("IsCached(%d) = %v, simulator says %v", far(u), view.IsCached(far(u)), sim.IsCached(u))
		}
	}
	for _, u := range []graph.Node{-1, math.MinInt32, far(9)} {
		if view.IsCached(u) {
			t.Fatalf("IsCached(%d) for a node never fetched", u)
		}
	}
}

// farTransport serves a graph under node IDs near 2^31: graph node u
// is far(u), in its own ID and in every neighbor list.
type farTransport struct{ inner *SimTransport }

// far maps node u to math.MaxInt32 - u and back.
func far(u graph.Node) graph.Node { return math.MaxInt32 - u }

func (t farTransport) Fetch(ctx context.Context, u graph.Node) (Row, error) {
	row, err := t.inner.Fetch(ctx, far(u))
	if err != nil {
		return Row{}, err
	}
	ns := make([]graph.Node, len(row.Neighbors))
	for i, w := range row.Neighbors {
		ns[i] = far(w)
	}
	row.Neighbors = ns
	return row, nil
}

// TestPipelineSingleFlight checks cross-chain dedup: demands from many
// views for one node pay exactly one network fetch.
func TestPipelineSingleFlight(t *testing.T) {
	g := testGraph(t)
	tr := NewSimTransport(g, time.Millisecond)
	p := NewPrefetcher(tr, 0)
	defer p.Close()

	const chains = 8
	var wg sync.WaitGroup
	views := make([]*PipeView, chains)
	for i := range views {
		views[i] = p.View()
	}
	for _, v := range views {
		wg.Add(1)
		go func(v *PipeView) {
			defer wg.Done()
			if _, err := v.Neighbors(2); err != nil {
				t.Error(err)
			}
		}(v)
	}
	wg.Wait()
	if got := tr.Fetches(); got != 1 {
		t.Fatalf("8 chains fetching one node cost %d network fetches, want 1", got)
	}
	st := p.Stats()
	if st.NetworkFetches != 1 || st.DemandMisses != 1 {
		t.Fatalf("stats = %+v, want 1 network fetch from 1 demand miss", st)
	}
	if got := st.DemandJoined + st.DemandWarm; got != chains-1 {
		t.Fatalf("saves = %d, want %d", got, chains-1)
	}
	for _, v := range views {
		if v.QueryCost() != 1 {
			t.Fatalf("chain-local cost = %d, want 1", v.QueryCost())
		}
	}
}

// TestPrefetcherWarm checks speculation mechanics: the window bounds
// in-flight fetches, warming is accounting-free, warmed rows serve
// demands without new fetches, and window 0 disables speculation.
func TestPrefetcherWarm(t *testing.T) {
	g := testGraph(t) // K5: every row lists the other four nodes
	tr := NewSimTransport(g, 0)
	p := NewPrefetcher(tr, 2)
	defer p.Close()
	view := p.View()

	p.Warm([]graph.Node{0})
	deadline := time.After(5 * time.Second)
	for p.Stats().SpeculativeFetches == 0 {
		select {
		case <-deadline:
			t.Fatal("warm issued no speculative fetches")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if st := p.Stats(); st.DemandMisses != 0 || view.QueryCost() != 0 || view.TotalRequests() != 0 {
		t.Fatalf("warming touched accounting: %+v, view %d/%d", st, view.QueryCost(), view.TotalRequests())
	}
	if _, err := view.Neighbors(0); err != nil {
		t.Fatal(err)
	}
	// The demand found the warmed row cached or in flight — never a miss.
	if st := p.Stats(); st.DemandMisses != 0 || st.DemandWarm+st.DemandJoined != 1 {
		t.Fatalf("demand of warmed node was not served by speculation: %+v", st)
	}
	if view.QueryCost() != 1 || view.TotalRequests() != 1 {
		t.Fatalf("chain accounting after warmed demand: %d/%d, want 1/1", view.QueryCost(), view.TotalRequests())
	}

	p0 := NewPrefetcher(NewSimTransport(g, 0), 0)
	defer p0.Close()
	p0.Warm([]graph.Node{0, 1, 2})
	if st := p0.Stats(); st.SpeculativeFetches != 0 || st.NetworkFetches != 0 {
		t.Fatalf("window 0 speculated: %+v", st)
	}
}

// TestPrefetcherWindowBound holds all speculative fetches on a gate
// and checks the in-flight window is never exceeded and excess hints
// are dropped.
func TestPrefetcherWindowBound(t *testing.T) {
	g := testGraph(t)
	gate := make(chan struct{})
	tr := &gatedTransport{inner: NewSimTransport(g, 0), gate: gate}
	p := NewPrefetcher(tr, 2)
	p.Warm([]graph.Node{0, 1, 2, 3, 4})
	// Only 2 fetches may start; the other hints were dropped, not queued.
	deadline := time.After(time.Second)
	for tr.started.Load() < 2 {
		select {
		case <-deadline:
			t.Fatalf("speculative fetches started = %d, want 2", tr.started.Load())
		default:
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(5 * time.Millisecond)
	if got := tr.started.Load(); got != 2 {
		t.Fatalf("window 2 allowed %d in-flight fetches", got)
	}
	close(gate)
	p.Close()
	if st := p.Stats(); st.SpeculativeFetches < 2 {
		t.Fatalf("stats lost speculative fetches: %+v", st)
	}
}

// TestPipelineErrorRetry checks failed fetches are surfaced to the
// demanding chain and then forgotten, so a later demand retries.
func TestPipelineErrorRetry(t *testing.T) {
	g := testGraph(t)
	tr := &flakyTransport{inner: NewSimTransport(g, 0), failures: 1}
	p := NewPrefetcher(tr, 0)
	defer p.Close()
	view := p.View()
	if _, err := view.Neighbors(1); err == nil {
		t.Fatal("first fetch should have failed")
	}
	if view.QueryCost() != 0 || view.TotalRequests() != 0 {
		t.Fatalf("failed fetch was counted: %d/%d", view.QueryCost(), view.TotalRequests())
	}
	if _, err := view.Neighbors(1); err != nil {
		t.Fatalf("retry after transient failure: %v", err)
	}
	if view.QueryCost() != 1 {
		t.Fatalf("cost after retry = %d, want 1", view.QueryCost())
	}
}

// TestPrefetcherClose checks Close cancels in-flight speculation and
// that cached rows stay readable afterwards.
func TestPrefetcherClose(t *testing.T) {
	g := testGraph(t)
	p := NewPrefetcher(NewSimTransport(g, 0), 4)
	view := p.View()
	if _, err := view.Neighbors(0); err != nil {
		t.Fatal(err)
	}
	slow := NewPrefetcher(NewSimTransport(g, time.Hour), 4)
	slow.Warm([]graph.Node{1, 2})
	done := make(chan struct{})
	go func() { slow.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not cancel in-flight speculative fetches")
	}
	p.Close()
	if !view.IsCached(0) {
		t.Fatal("chain-local cache lost after Close")
	}
	if _, err := view.Neighbors(0); err != nil {
		t.Fatalf("cached row unreadable after Close: %v", err)
	}
}

// gatedTransport blocks every Fetch until the gate opens, counting
// starts — for asserting the in-flight window.
type gatedTransport struct {
	inner   *SimTransport
	gate    chan struct{}
	started atomic.Int64
}

func (t *gatedTransport) Fetch(ctx context.Context, u graph.Node) (Row, error) {
	t.started.Add(1)
	select {
	case <-t.gate:
	case <-ctx.Done():
		return Row{}, context.Cause(ctx)
	}
	return t.inner.Fetch(ctx, u)
}

// flakyTransport fails the first `failures` fetches, then delegates.
type flakyTransport struct {
	mu       sync.Mutex
	inner    *SimTransport
	failures int
}

func (t *flakyTransport) Fetch(ctx context.Context, u graph.Node) (Row, error) {
	t.mu.Lock()
	fail := t.failures > 0
	if fail {
		t.failures--
	}
	t.mu.Unlock()
	if fail {
		return Row{}, errors.New("transient transport failure")
	}
	return t.inner.Fetch(ctx, u)
}
