package access

// Tests for the Simulator's bitset query cache and for UniqueAcross,
// the union that a shared-cache run derives its network ledger from.

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"histwalk/internal/graph"
)

// TestSimulatorBitsetWordEdges queries the nodes on either side of the
// bitset's 64-bit word boundaries across two simulators and checks
// cache membership, unique cost, free summary availability, Reset and
// the cross-simulator union there.
func TestSimulatorBitsetWordEdges(t *testing.T) {
	const n = 200 // four words, the last one partly padding
	g := graph.Cycle(n)
	a, b := NewSimulator(g), NewSimulator(g)
	crawlA := []graph.Node{0, 63, 64, 127}
	crawlB := []graph.Node{64, 127, 128, n - 1}
	for _, u := range crawlA {
		if _, err := a.Neighbors(u); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range crawlB {
		if _, err := b.Degree(u); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Neighbors(n); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Neighbors(%d) err = %v, want ErrUnknownNode", n, err)
	}

	for _, u := range []graph.Node{-1, 0, 1, 62, 63, 64, 65, 126, 127, 128, 129, n - 2, n - 1, n, 255, 256} {
		if got, want := a.IsCached(u), slices.Contains(crawlA, u); got != want {
			t.Errorf("a.IsCached(%d) = %v, want %v", u, got, want)
		}
		if got, want := b.IsCached(u), slices.Contains(crawlB, u); got != want {
			t.Errorf("b.IsCached(%d) = %v, want %v", u, got, want)
		}
	}
	if a.QueryCost() != 4 || b.QueryCost() != 4 {
		t.Fatalf("QueryCost = %d, %d, want 4, 4", a.QueryCost(), b.QueryCost())
	}

	// Summaries are free only from the chain's own queried owners.
	for _, c := range []struct {
		sim      *Simulator
		owner, w graph.Node
		ok       bool
	}{
		{a, 63, 62, true},
		{a, 64, 65, true},
		{a, 62, 63, false},
		{a, 65, 64, false},
		{b, n - 1, 0, true},
		{a, n - 1, 0, false},
		{b, 128, 127, true},
		{b, 0, n - 1, false},
	} {
		_, err := c.sim.SummaryDegree(c.owner, c.w)
		if c.ok && err != nil {
			t.Errorf("SummaryDegree(%d, %d) = %v, want available", c.owner, c.w, err)
		}
		if !c.ok && !errors.Is(err, ErrNotInSummary) {
			t.Errorf("SummaryDegree(%d, %d) err = %v, want ErrNotInSummary", c.owner, c.w, err)
		}
	}

	if got := UniqueAcross([]*Ledger{&a.Ledger, &b.Ledger}); got != 6 {
		t.Fatalf("UniqueAcross = %d, want 6 (0, 63, 64, 127, 128, %d)", got, n-1)
	}
	if got := UniqueAcross([]*Ledger{&a.Ledger}); got != a.QueryCost() {
		t.Fatalf("UniqueAcross of one simulator = %d, want its QueryCost %d", got, a.QueryCost())
	}
	if got := UniqueAcross(nil); got != 0 {
		t.Fatalf("UniqueAcross(nil) = %d, want 0", got)
	}

	a.Reset()
	for _, u := range crawlA {
		if a.IsCached(u) {
			t.Fatalf("IsCached(%d) after Reset", u)
		}
	}
	if _, err := a.SummaryDegree(63, 62); !errors.Is(err, ErrNotInSummary) {
		t.Fatalf("summary available after Reset: err = %v", err)
	}
	if a.QueryCost() != 0 || a.TotalRequests() != 0 {
		t.Fatalf("Reset left cost %d, requests %d", a.QueryCost(), a.TotalRequests())
	}
	if got := UniqueAcross([]*Ledger{&a.Ledger, &b.Ledger}); got != b.QueryCost() {
		t.Fatalf("UniqueAcross after Reset = %d, want b's %d", got, b.QueryCost())
	}
}

// TestSharedGlobalAccounting checks the three-level ledger a shared
// cache derives from its chains' own caches: chain-local unique counts
// are unaffected by siblings, the union counts each node's network
// fetch once, and the overlap is the cross-chain hits.
func TestSharedGlobalAccounting(t *testing.T) {
	g := testGraph(t)
	a, b := NewSimulator(g), NewSimulator(g)
	for _, u := range []graph.Node{0, 1, 1} { // 1 repeated: local cache hit
		if _, err := a.Neighbors(u); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range []graph.Node{1, 2} { // 1 overlaps with a's crawl
		if _, err := b.Neighbors(u); err != nil {
			t.Fatal(err)
		}
	}
	if a.QueryCost() != 2 || b.QueryCost() != 2 {
		t.Fatalf("local costs = %d, %d, want 2, 2", a.QueryCost(), b.QueryCost())
	}
	global := UniqueAcross([]*Ledger{&a.Ledger, &b.Ledger})
	if global != 3 {
		t.Fatalf("global cost = %d, want 3 (nodes 0, 1, 2)", global)
	}
	if hits := a.QueryCost() + b.QueryCost() - global; hits != 1 {
		t.Fatalf("cross-chain hits = %d, want 1 (b's query for node 1)", hits)
	}
	if reqs := a.TotalRequests() + b.TotalRequests(); reqs != 5 {
		t.Fatalf("total requests = %d, want 5", reqs)
	}
}

// TestUniqueAcrossMatchesDistinctCount cross-checks the word-wise union
// against a per-node count over random crawls of several simulators.
func TestUniqueAcrossMatchesDistinctCount(t *testing.T) {
	g := graph.BarabasiAlbert(400, 3, rand.New(rand.NewSource(17)))
	sims := make([]*Simulator, 8)
	ledgers := make([]*Ledger, len(sims))
	for i := range sims {
		sims[i] = NewSimulator(g)
		ledgers[i] = &sims[i].Ledger
		rng := rand.New(rand.NewSource(int64(100 + i)))
		for q := 0; q < 150; q++ {
			if _, err := sims[i].Neighbors(graph.Node(rng.Intn(g.NumNodes()))); err != nil {
				t.Fatal(err)
			}
		}
	}
	distinct := 0
	for u := 0; u < g.NumNodes(); u++ {
		for _, s := range sims {
			if s.IsCached(graph.Node(u)) {
				distinct++
				break
			}
		}
	}
	if got := UniqueAcross(ledgers); got != distinct {
		t.Fatalf("UniqueAcross = %d, distinct nodes queried = %d", got, distinct)
	}
}
