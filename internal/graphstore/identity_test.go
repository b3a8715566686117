package graphstore_test

import (
	"math/rand"
	"path/filepath"
	"testing"

	"histwalk/internal/access"
	"histwalk/internal/dataset"
	"histwalk/internal/graph"
	"histwalk/internal/graphstore"
	"histwalk/internal/registry"
)

// TestBackendBitIdentity pins the house invariant of the storage layer:
// for a fixed seed, every registered walker produces bit-identical
// trajectories and query costs whether the graph is served from the
// heap or from an mmap-backed .hwg store. The dataset is a YelpN
// stand-in because it carries the reviews_count attribute gnrw-reviews
// strata on, so all nine registry walkers can run unmodified.
func TestBackendBitIdentity(t *testing.T) {
	g := dataset.YelpN(400, 1)
	path := filepath.Join(t.TempDir(), "yelp.hwg")
	if err := graphstore.WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	m, err := graphstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const steps = 400
	for _, name := range registry.WalkerNames() {
		t.Run(name, func(t *testing.T) {
			factory, err := registry.WalkerByName(name, registry.WalkerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []int64{1, 7, 99} {
				// Fresh simulators per seed so query-cost accounting
				// starts from zero on both backends.
				heapSim := access.NewSimulator(g)
				mmapSim := access.NewSimulator(m)
				start := graph.Node(rand.New(rand.NewSource(seed)).Intn(g.NumNodes()))
				hw := factory.New(heapSim, start, rand.New(rand.NewSource(seed)))
				mw := factory.New(mmapSim, start, rand.New(rand.NewSource(seed)))
				for i := 0; i < steps; i++ {
					hn, herr := hw.Step()
					mn, merr := mw.Step()
					if (herr == nil) != (merr == nil) {
						t.Fatalf("seed %d step %d: heap err %v, mmap err %v", seed, i, herr, merr)
					}
					if herr != nil {
						break
					}
					if hn != mn {
						t.Fatalf("seed %d step %d: heap walked to %d, mmap to %d", seed, i, hn, mn)
					}
					if hq, mq := heapSim.QueryCost(), mmapSim.QueryCost(); hq != mq {
						t.Fatalf("seed %d step %d: query cost %d (heap) vs %d (mmap)", seed, i, hq, mq)
					}
					if hr, mr := heapSim.TotalRequests(), mmapSim.TotalRequests(); hr != mr {
						t.Fatalf("seed %d step %d: requests %d (heap) vs %d (mmap)", seed, i, hr, mr)
					}
				}
				if hw.Steps() != mw.Steps() || hw.Current() != mw.Current() {
					t.Fatalf("seed %d: final state (%d steps, at %d) vs (%d steps, at %d)",
						seed, hw.Steps(), hw.Current(), mw.Steps(), mw.Current())
				}
			}
		})
	}
}
