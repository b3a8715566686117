package core

import (
	"math/rand"
	"testing"

	"histwalk/internal/access"
	"histwalk/internal/graph"
)

// attrGraph builds a clustered graph with a community-valued attribute
// so attribute groupers produce several strata per neighborhood.
func attrGraph(t *testing.T) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	g := graph.PlantedPartition([]int{8, 8, 8}, 0.8, 0.15, rng)
	comm, _ := g.Attr("community")
	vals := make([]float64, g.NumNodes())
	for i, c := range comm {
		vals[i] = (c + 1) * 10 // communities at 10, 20, 30
	}
	if err := g.SetAttr("score", vals); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGNRWNodeCirculationInvariant: GNRW, like CNRW, never repeats a
// successor on a directed edge until all of N(v) has been chosen.
func TestGNRWNodeCirculationInvariant(t *testing.T) {
	g := attrGraph(t)
	for _, grouper := range []Grouper{
		HashGrouper{M: 3},
		DegreeGrouper{M: 4},
		AttrGrouper{Attr: "score", M: 4},
		WidthGrouper{Attr: "score", Width: 10, M: 4},
	} {
		rng := rand.New(rand.NewSource(42))
		sim := access.NewSimulator(g)
		w := NewGNRW(sim, grouper, 0, rng)
		check := newCirculationChecker(t, g)
		var prev graph.Node = -1
		cur := w.Current()
		for s := 0; s < 30000; s++ {
			next, err := w.Step()
			if err != nil {
				t.Fatalf("%s: %v", grouper.Name(), err)
			}
			if prev >= 0 {
				check.observe(prev, cur, next, s)
			}
			prev, cur = cur, next
		}
	}
}

// TestGNRWGroupAlternation: within one group round, GNRW never picks
// from the same stratum twice while another active stratum is waiting.
func TestGNRWGroupAlternation(t *testing.T) {
	g := attrGraph(t)
	grouper := AttrGrouper{Attr: "score", M: 4}
	rng := rand.New(rand.NewSource(43))
	sim := access.NewSimulator(g)
	w := NewGNRW(sim, grouper, 0, rng)

	// Replays the round bookkeeping externally.
	groupOf := func(owner, n graph.Node) int {
		gid, err := grouper.GroupOf(sim, owner, n)
		if err != nil {
			t.Fatal(err)
		}
		return gid
	}
	type state struct {
		used  map[graph.Node]bool
		round map[int]bool
	}
	hist := make(map[edgeKey]*state)
	var prev graph.Node = -1
	cur := w.Current()
	for s := 0; s < 20000; s++ {
		next, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 {
			key := packEdge(prev, cur)
			st := hist[key]
			if st == nil {
				st = &state{used: map[graph.Node]bool{}, round: map[int]bool{}}
				hist[key] = st
			}
			gid := groupOf(cur, next)
			// Round reset condition: all active strata already chosen.
			activeNotInRound := 0
			for _, n := range g.Neighbors(cur) {
				if !st.used[n] && !st.round[groupOf(cur, n)] {
					activeNotInRound++
				}
			}
			if activeNotInRound == 0 {
				st.round = map[int]bool{}
			}
			if st.round[gid] {
				t.Fatalf("step %d: stratum %d chosen twice in one round on edge %d→%d", s, gid, prev, cur)
			}
			if st.used[next] {
				t.Fatalf("step %d: node %d repeated before circulation completed", s, next)
			}
			st.used[next] = true
			st.round[gid] = true
			if len(st.used) == g.Degree(cur) {
				hist[key] = nil
			}
		}
		prev, cur = cur, next
	}
}

// TestGNRWSingleGroupEqualsCNRW: with one stratum GNRW reduces exactly
// to CNRW (§4.1's "one extreme"), down to identical RNG consumption.
func TestGNRWSingleGroupEqualsCNRW(t *testing.T) {
	g := attrGraph(t)
	pathG := walkPath(t, g, GNRWFactory(HashGrouper{M: 1}), 2000, 77)
	pathC := walkPath(t, g, CNRWFactory(), 2000, 77)
	for i := range pathG {
		if pathG[i] != pathC[i] {
			t.Fatalf("GNRW(m=1) diverged from CNRW at step %d: %d vs %d", i, pathG[i], pathC[i])
		}
	}
}

// TestGNRWHistoryBound mirrors the O(K) space claim of §4.2.
func TestGNRWHistoryBound(t *testing.T) {
	g := attrGraph(t)
	rng := rand.New(rand.NewSource(44))
	sim := access.NewSimulator(g)
	w := NewGNRW(sim, HashGrouper{M: 3}, 0, rng)
	for s := 0; s < 20000; s++ {
		if _, err := w.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if w.HistorySize() > 2*g.NumEdges() {
		t.Fatalf("history %d exceeds directed edge count %d", w.HistorySize(), 2*g.NumEdges())
	}
	if w.HistorySize() == 0 {
		t.Fatal("history never engaged")
	}
}

// TestGNRWNoPaidQueriesForGrouping: GNRW must spend exactly as many
// unique queries as the nodes it visits — grouping reads only free
// summaries.
func TestGNRWNoPaidQueriesForGrouping(t *testing.T) {
	g := attrGraph(t)
	rng := rand.New(rand.NewSource(45))
	sim := access.NewSimulator(g)
	w := NewGNRW(sim, AttrGrouper{Attr: "score", M: 4}, 0, rng)
	visited := map[graph.Node]bool{0: true}
	for s := 0; s < 3000; s++ {
		v, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		visited[v] = true
	}
	// The walker queries each node it stands on (including the start).
	if sim.QueryCost() > len(visited) {
		t.Fatalf("GNRW spent %d unique queries but visited only %d nodes: grouping leaked paid queries",
			sim.QueryCost(), len(visited))
	}
}

// TestGNRWGroupCacheConsistency: the walker's memoized stratum for a
// node always equals a fresh grouper evaluation.
func TestGNRWGroupCacheConsistency(t *testing.T) {
	g := attrGraph(t)
	grouper := AttrGrouper{Attr: "score", M: 4}
	rng := rand.New(rand.NewSource(46))
	sim := access.NewSimulator(g)
	w := NewGNRW(sim, grouper, 0, rng)
	for s := 0; s < 2000; s++ {
		if _, err := w.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// Re-evaluate strata through a queried owner and compare with the
	// walker's memoization.
	checked := 0
	for v := 0; v < g.NumNodes(); v++ {
		if !sim.IsCached(graph.Node(v)) {
			continue
		}
		for _, n := range g.Neighbors(graph.Node(v)) {
			memo := w.strata.memo(n).Load()
			if memo == 0 {
				continue
			}
			cached := int(memo - 1)
			fresh, err := grouper.GroupOf(sim, graph.Node(v), n)
			if err != nil {
				t.Fatal(err)
			}
			if fresh != cached {
				t.Fatalf("node %d: cached stratum %d != fresh %d", n, cached, fresh)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no cached strata were checked")
	}
}
