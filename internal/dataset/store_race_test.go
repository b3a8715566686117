package dataset

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"histwalk/internal/graph"
	"histwalk/internal/graphstore"
)

// TestOpenStoreConcurrent hammers the process-wide mapping cache from
// many goroutines (run under -race in CI): every concurrent OpenStore
// of the same .hwg path must resolve to the SAME *graph.Graph,
// and concurrent readers over that shared mapping must see consistent
// rows. This is the contract a daemon running parallel jobs against
// one on-disk graph depends on.
func TestOpenStoreConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.ErdosRenyi(200, 0.05, rng).LargestComponent()
	g.SetName("race")
	path := filepath.Join(t.TempDir(), "race.hwg")
	if err := graphstore.WriteFile(path, g); err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	stores := make([]*graph.Graph, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := OpenStore(path, 0)
			if err != nil {
				t.Error(err)
				return
			}
			stores[i] = st
			// Read through the shared mapping while siblings are
			// still opening/reading: degrees must match the source.
			for u := 0; u < st.NumNodes(); u++ {
				if got, want := len(st.Neighbors(graph.Node(u))), g.Degree(graph.Node(u)); got != want {
					t.Errorf("goroutine %d: degree(%d) = %d, want %d", i, u, got, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	first := stores[0]
	for i, st := range stores {
		if st != first {
			t.Fatalf("goroutine %d got a distinct mapping: cache did not dedup", i)
		}
	}

	// A relative spelling of the same file shares the mapping too —
	// the cache keys by absolute path.
	rel, err := filepath.Rel(mustGetwd(t), path)
	if err != nil {
		t.Skipf("no relative spelling: %v", err)
	}
	st, err := OpenStore(rel, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st != first {
		t.Fatal("relative path opened a second mapping of the same file")
	}
}

func mustGetwd(t *testing.T) string {
	t.Helper()
	wd, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	return wd
}
