package session

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"histwalk/internal/graph"
	"histwalk/internal/graphstore"
)

// packedTestGraph writes the standard test graph to a .hwg file and
// opens it through the mmap backend.
func packedTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := testGraph(t)
	path := filepath.Join(t.TempDir(), "sbm120.hwg")
	if err := graphstore.WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	m, err := graphstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestRunStoreBackendIdentical pins the session-level backend
// invariant: a run over a graph opened from a .hwg file (mmap) is
// deep-equal to the same run over the heap graph it was written from —
// estimates, per-chain trajectories, budgets and cost accounting —
// under both cache policies, for a spec naming the deprecated
// SteppingBatched alias, and through the pipelined access layer
// (SimTransport rows built by StoreRow), where only the
// scheduling-dependent Pipeline counters are left out.
func TestRunStoreBackendIdentical(t *testing.T) {
	g := testGraph(t)
	m := packedTestGraph(t)
	for _, tc := range []struct {
		name     string
		cache    CachePolicy
		stepping SteppingMode
		window   int
	}{
		{"isolated-perchain", CacheIsolated, SteppingPerChain, 0},
		{"shared-perchain", CacheShared, SteppingPerChain, 0},
		{"batched-alias", CacheIsolated, SteppingBatched, 0},
		{"pipelined", CacheIsolated, SteppingPerChain, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			heapSpec := baseSpec(g)
			heapSpec.Cache = tc.cache
			heapSpec.Stepping = tc.stepping
			heapSpec.Window = tc.window
			heapSpec.Estimators = []EstimatorSpec{{Kind: AggMean, Attr: "score"}}

			storeSpec := heapSpec
			storeSpec.Graph = m

			hres, err := Run(context.Background(), heapSpec)
			if err != nil {
				t.Fatal(err)
			}
			sres, err := Run(context.Background(), storeSpec)
			if err != nil {
				t.Fatal(err)
			}
			if piped := tc.window > 0; (hres.Pipeline != nil) != piped || (sres.Pipeline != nil) != piped {
				t.Fatalf("pipeline stats present: heap %v, store %v; want %v", hres.Pipeline != nil, sres.Pipeline != nil, piped)
			}
			if !reflect.DeepEqual(chainLocal(hres), chainLocal(sres)) {
				t.Fatalf("results differ between heap and store backends:\nheap:  %+v\nstore: %+v", hres, sres)
			}
		})
	}
}

// TestWireStorePath checks that a serialized job spec can name a .hwg
// file as its dataset and resolves to the graph mapped from it.
func TestWireStorePath(t *testing.T) {
	g := testGraph(t)
	path := filepath.Join(t.TempDir(), "wire.hwg")
	if err := graphstore.WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	w := SpecJSON{
		Dataset: path,
		Walker:  "cnrw",
		Budget:  40,
		Chains:  2,
		Seed:    3,
	}
	spec, err := w.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Graph == nil {
		t.Fatal("Spec.Graph not set from a .hwg dataset path")
	}
	if n := spec.Graph.NumNodes(); n != g.NumNodes() {
		t.Fatalf("resolved graph has %d nodes, want %d", n, g.NumNodes())
	}
	if _, err := Run(context.Background(), spec); err != nil {
		t.Fatalf("running a wire-resolved store spec: %v", err)
	}

	bad := w
	bad.Dataset = filepath.Join(t.TempDir(), "missing.hwg")
	if _, err := bad.Spec(); err == nil || !strings.Contains(err.Error(), "opening graph store") {
		t.Fatalf("want opening-graph-store error for a missing file, got %v", err)
	}
}
