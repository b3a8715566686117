package session

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"histwalk/internal/graphstore"
)

// packedTestGraph writes the standard test graph to a .hwg file and
// opens it through the mmap backend.
func packedTestGraph(t *testing.T) *graphstore.Mapped {
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
// invariant: a run over Spec.Store (mmap) is deep-equal to the same
// run over Spec.Graph (heap) — estimates, per-chain trajectories,
// budgets and cost accounting — under both cache policies, and for a
// spec naming the deprecated SteppingBatched alias.
func TestRunStoreBackendIdentical(t *testing.T) {
	g := testGraph(t)
	m := packedTestGraph(t)
	for _, tc := range []struct {
		name     string
		cache    CachePolicy
		stepping SteppingMode
	}{
		{"isolated-perchain", CacheIsolated, SteppingPerChain},
		{"shared-perchain", CacheShared, SteppingPerChain},
		{"batched-alias", CacheIsolated, SteppingBatched},
	} {
		t.Run(tc.name, func(t *testing.T) {
			heapSpec := baseSpec(g)
			heapSpec.Cache = tc.cache
			heapSpec.Stepping = tc.stepping
			heapSpec.Estimators = []EstimatorSpec{{Kind: AggMean, Attr: "score"}}

			storeSpec := heapSpec
			storeSpec.Graph = nil
			storeSpec.Store = m

			hres, err := Run(context.Background(), heapSpec)
			if err != nil {
				t.Fatal(err)
			}
			sres, err := Run(context.Background(), storeSpec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(hres, sres) {
				t.Fatalf("results differ between heap and store backends:\nheap:  %+v\nstore: %+v", hres, sres)
			}
		})
	}
}

func TestValidateStoreSource(t *testing.T) {
	g := testGraph(t)
	m := packedTestGraph(t)

	spec := baseSpec(g)
	spec.Graph = nil
	spec.Store = m
	if err := spec.Validate(); err != nil {
		t.Fatalf("store-only spec rejected: %v", err)
	}

	both := baseSpec(g)
	both.Store = m
	err := both.Validate()
	if err == nil || !strings.Contains(err.Error(), "exactly one") {
		t.Fatalf("Graph+Store spec: want exactly-one error, got %v", err)
	}
}

// TestWireStorePath checks that a serialized job spec can name a .hwg
// file as its dataset and resolves to the mmap backend.
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
	if spec.Graph != nil {
		t.Fatal("a .hwg dataset should resolve to Spec.Store, not Spec.Graph")
	}
	if spec.Store == nil {
		t.Fatal("Spec.Store not set from a .hwg dataset path")
	}
	if n := spec.Store.NumNodes(); n != g.NumNodes() {
		t.Fatalf("resolved store has %d nodes, want %d", n, g.NumNodes())
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
