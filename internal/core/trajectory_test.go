package core

// Replay-compatibility proof for the zero-allocation hot path: every
// registry walker, driven by the same seed over the same graph, must
// produce byte-identical trajectories and query accounting on the old
// (reference_test.go) and new implementations — plus the allocation
// gate the rewrite exists for.

import (
	"errors"
	"math/rand"
	"testing"

	"histwalk/internal/access"
	"histwalk/internal/dataset"
	"histwalk/internal/graph"
)

// parityReviewsAttr mirrors dataset.AttrReviews (the registry's
// gnrw-reviews measure attribute) without importing the dataset
// package into the reference walkers.
const parityReviewsAttr = "reviews_count"

// parityWalkers lists every algorithm in internal/registry's catalog
// by its registered name, paired with the production factory the
// registry would return for the default options (Groups = 5).
func parityWalkers() []struct {
	name    string
	factory Factory
} {
	return []struct {
		name    string
		factory Factory
	}{
		{"srw", SRWFactory()},
		{"mhrw", MHRWFactory()},
		{"nbsrw", NBSRWFactory()},
		{"cnrw", CNRWFactory()},
		{"cnrw-node", CNRWNodeFactory()},
		{"nbcnrw", NBCNRWFactory()},
		{"gnrw-degree", GNRWFactory(DegreeGrouper{M: 5})},
		{"gnrw-md5", GNRWFactory(HashGrouper{M: 5})},
		{"gnrw-reviews", GNRWFactory(AttrGrouper{Attr: parityReviewsAttr, M: 5})},
	}
}

// attachReviews materializes a deterministic reviews_count attribute so
// the gnrw-reviews grouper has data on synthetic graphs.
func attachReviews(t testing.TB, g *graph.Graph) *graph.Graph {
	t.Helper()
	vals := make([]float64, g.NumNodes())
	for v := range vals {
		vals[v] = float64((v*v + 3*v) % 97)
	}
	if err := g.SetAttr(parityReviewsAttr, vals); err != nil {
		t.Fatal(err)
	}
	return g
}

func parityGraphs(t testing.TB) []*graph.Graph {
	rng := rand.New(rand.NewSource(404))
	er := graph.ErdosRenyi(60, 0.12, rng).LargestComponent()
	er.SetName("er60")
	gp := dataset.GooglePlusN(300, 7)
	return []*graph.Graph{
		attachReviews(t, graph.Complete(6)),
		attachReviews(t, graph.Barbell(6)),
		attachReviews(t, graph.ClusteredCliques([]int{4, 5, 6})),
		attachReviews(t, graph.Star(9)),
		attachReviews(t, er),
		attachReviews(t, gp),
	}
}

// runParity walks both implementations of one algorithm side by side
// and reports the first divergence (step index, -1 if none) along with
// the final query accounting of each path.
func runParity(name string, f Factory, g *graph.Graph, seed int64, steps int) (divergence int, refCost, newCost, refReqs, newReqs int, err error) {
	refSim := access.NewSimulator(g)
	newSim := access.NewSimulator(g)
	refRng := rand.New(rand.NewSource(seed))
	newRng := rand.New(rand.NewSource(seed))
	start := graph.Node(0)
	ref := newRefWalker(name, refSim, start, refRng)
	w := f.New(newSim, start, newRng)
	divergence = -1
	for s := 0; s < steps; s++ {
		rv, rerr := ref.Step()
		nv, nerr := w.Step()
		if (rerr == nil) != (nerr == nil) || rv != nv {
			divergence = s
			break
		}
		if rerr != nil {
			err = rerr
			break
		}
	}
	return divergence, refSim.QueryCost(), newSim.QueryCost(),
		refSim.TotalRequests(), newSim.TotalRequests(), err
}

// TestTrajectoryBitIdentity: the acceptance gate of the hot-path
// rewrite. All 9 registry walkers × 6 graphs × 2 seeds: identical
// node sequences, identical unique-query costs, identical request
// totals.
func TestTrajectoryBitIdentity(t *testing.T) {
	for _, g := range parityGraphs(t) {
		for _, pw := range parityWalkers() {
			for _, seed := range []int64{1, 20260729} {
				div, refCost, newCost, refReqs, newReqs, err := runParity(pw.name, pw.factory, g, seed, 20000)
				if err != nil {
					t.Fatalf("%s on %s seed %d: %v", pw.name, g.Name(), seed, err)
				}
				if div >= 0 {
					t.Fatalf("%s on %s seed %d: trajectory diverged from the pre-refactor path at step %d", pw.name, g.Name(), seed, div)
				}
				if refCost != newCost {
					t.Fatalf("%s on %s seed %d: query cost %d != reference %d", pw.name, g.Name(), seed, newCost, refCost)
				}
				if refReqs != newReqs {
					t.Fatalf("%s on %s seed %d: request total %d != reference %d", pw.name, g.Name(), seed, newReqs, refReqs)
				}
			}
		}
	}
}

// FuzzTrajectoryParity drives the same parity over fuzzer-chosen
// walker/topology/seed combinations. The seeded corpus runs in plain
// `go test` (and CI); `go test -fuzz=FuzzTrajectoryParity` explores
// further.
func FuzzTrajectoryParity(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(4000), uint8(40), uint8(30))
	f.Add(int64(99), uint8(6), uint16(2500), uint8(25), uint8(60))
	f.Add(int64(7), uint8(8), uint16(1500), uint8(50), uint8(10))
	f.Add(int64(-12345), uint8(0), uint16(800), uint8(12), uint8(90))
	f.Fuzz(func(t *testing.T, seed int64, walkerIdx uint8, steps uint16, n uint8, pRaw uint8) {
		walkers := parityWalkers()
		pw := walkers[int(walkerIdx)%len(walkers)]
		nodes := 4 + int(n)%80
		p := 0.05 + float64(pRaw%100)/150
		gRng := rand.New(rand.NewSource(seed))
		g := graph.ErdosRenyi(nodes, p, gRng).LargestComponent()
		if g.NumNodes() < 2 {
			t.Skip("degenerate graph")
		}
		attachReviews(t, g)
		nSteps := 1 + int(steps)%5000
		div, refCost, newCost, refReqs, newReqs, err := runParity(pw.name, pw.factory, g, seed^0x5eed, nSteps)
		if err != nil && !errors.Is(err, ErrDeadEnd) {
			t.Fatalf("%s: %v", pw.name, err)
		}
		if div >= 0 {
			t.Fatalf("%s on %d-node graph: diverged at step %d", pw.name, g.NumNodes(), div)
		}
		if refCost != newCost || refReqs != newReqs {
			t.Fatalf("%s: query accounting diverged: cost %d vs %d, requests %d vs %d",
				pw.name, newCost, refCost, newReqs, refReqs)
		}
	})
}

// TestStepAllocationBudget is the allocation gate: at steady state
// (per-edge history warmed), SRW, CNRW, NB-CNRW and GNRW-degree Step
// must average ≤ 1 allocation on the Google Plus stand-in — in practice
// 0 for SRW and ~0 for the history-aware walks, where the only
// allocations left are first-traversal history entries.
func TestStepAllocationBudget(t *testing.T) {
	g := dataset.GooglePlusN(1000, 1)
	cases := []struct {
		name   string
		mk     func(c access.Client, s graph.Node, r *rand.Rand) Walker
		warmup int
	}{
		{"SRW", func(c access.Client, s graph.Node, r *rand.Rand) Walker { return NewSRW(c, s, r) }, 1000},
		{"CNRW", func(c access.Client, s graph.Node, r *rand.Rand) Walker { return NewCNRW(c, s, r) }, 1_500_000},
		{"NB-CNRW", func(c access.Client, s graph.Node, r *rand.Rand) Walker { return NewNBCNRW(c, s, r) }, 1_500_000},
		{"GNRW-degree", func(c access.Client, s graph.Node, r *rand.Rand) Walker {
			return NewGNRW(c, DegreeGrouper{M: 5}, s, r)
		}, 1_500_000},
	}
	for _, tc := range cases {
		sim := access.NewSimulator(g)
		rng := rand.New(rand.NewSource(2))
		w := tc.mk(sim, 0, rng)
		for s := 0; s < tc.warmup; s++ {
			if _, err := w.Step(); err != nil {
				t.Fatalf("%s warmup: %v", tc.name, err)
			}
		}
		allocs := testing.AllocsPerRun(20000, func() {
			if _, err := w.Step(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
		if allocs > 1 {
			t.Fatalf("%s: %v allocs per Step, want <= 1", tc.name, allocs)
		}
		t.Logf("%s: %v allocs per Step", tc.name, allocs)
	}
}

// TestPackEdgeInjective is the regression test for the edgeKey
// truncation bug: the former uint32 packing folded distinct endpoint
// pairs onto one key whenever Node carried information beyond 32 bits.
// The struct key must keep every adversarial pair distinct — including
// negative sentinel values and high-bit patterns — and must distinguish
// direction.
func TestPackEdgeInjective(t *testing.T) {
	const minI32, maxI32 = graph.Node(-1 << 31), graph.Node(1<<31 - 1)
	ids := []graph.Node{minI32, -65536, -2, -1, 0, 1, 2, 65535, 65536, maxI32 - 1, maxI32}
	seen := make(map[edgeKey][2]graph.Node)
	for _, u := range ids {
		for _, v := range ids {
			k := packEdge(u, v)
			if prev, dup := seen[k]; dup {
				t.Fatalf("packEdge collision: (%d,%d) and (%d,%d) share a key", prev[0], prev[1], u, v)
			}
			seen[k] = [2]graph.Node{u, v}
		}
	}
	if packEdge(1, 2) == packEdge(2, 1) {
		t.Fatal("packEdge lost edge direction")
	}
}
