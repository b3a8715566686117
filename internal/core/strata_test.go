package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"histwalk/internal/access"
	"histwalk/internal/dataset"
	"histwalk/internal/graph"
)

// TestShareStrataConcurrent steps GNRW chains that share one stratum
// table from concurrent goroutines (run it under -race) and requires
// every trajectory and query cost to equal the same chain walked alone
// with a private table: sharing may remove resolutions, nothing else.
func TestShareStrataConcurrent(t *testing.T) {
	g := attachReviews(t, dataset.GooglePlusN(2000, 3))
	for _, grouper := range []Grouper{DegreeGrouper{M: 5}, HashGrouper{M: 5}, AttrGrouper{Attr: parityReviewsAttr, M: 5}} {
		const chains, steps = 6, 3000
		walk := func(w Walker, sim *access.Simulator) ([]graph.Node, int) {
			traj := make([]graph.Node, 0, steps)
			for range steps {
				v, err := w.Step()
				if err != nil {
					t.Error(err)
					return nil, 0
				}
				traj = append(traj, v)
			}
			return traj, sim.QueryCost()
		}
		mk := func(c int) (*GNRW, *access.Simulator) {
			sim := access.NewSimulator(g)
			start := graph.Node(c * 97 % g.NumNodes())
			return NewGNRW(sim, grouper, start, rand.New(rand.NewSource(int64(c+1)))), sim
		}
		shared := make([]Walker, chains)
		sims := make([]*access.Simulator, chains)
		for c := range chains {
			shared[c], sims[c] = mk(c)
		}
		ShareStrata(shared)
		if shared[0].(*GNRW).strata != shared[chains-1].(*GNRW).strata {
			t.Fatalf("%s: equal groupers did not get one table", grouper.Name())
		}
		trajs := make([][]graph.Node, chains)
		costs := make([]int, chains)
		var wg sync.WaitGroup
		for c := range chains {
			wg.Add(1)
			go func() {
				defer wg.Done()
				trajs[c], costs[c] = walk(shared[c], sims[c])
			}()
		}
		wg.Wait()
		for c := range chains {
			w, sim := mk(c)
			want, cost := walk(w, sim)
			if !slices.Equal(trajs[c], want) || costs[c] != cost {
				t.Fatalf("%s chain %d: shared-table walk differs from the private-table walk", grouper.Name(), c)
			}
		}
	}
}
