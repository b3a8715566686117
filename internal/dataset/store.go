package dataset

// Dataset resolution over the out-of-core storage layer: a dataset
// reference is either a built-in synthetic name ("yelp", "gplus", …)
// constructed in memory from the seed, or a path to a packed .hwg
// binary graph store opened via mmap. Either way the result is a
// *graph.Graph. Jobs, wire specs and the CLI tools all resolve through
// OpenStore, so a histwalkd job can name an on-disk graph the same way
// it names a stand-in.

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"

	"histwalk/internal/graph"
	"histwalk/internal/graphstore"
)

// IsStoreFile reports whether the dataset reference names an on-disk
// .hwg graph store (by extension) rather than a built-in dataset.
func IsStoreFile(name string) bool {
	return strings.HasSuffix(name, graphstore.Ext)
}

var (
	storeMu    sync.Mutex
	storeCache = map[string]*graph.Graph{}
)

// OpenStore resolves a dataset reference to a graph. Built-in names
// return the heap stand-in from ByName (deterministic in seed); .hwg
// paths open the binary store via mmap — the seed is irrelevant there,
// since the graph is whatever was packed.
//
// Mapped graphs are cached process-wide by absolute path and kept open
// for the process lifetime: concurrent jobs naming the same file share
// one read-only mapping (safe for concurrent readers), repeat jobs pay
// the open cost once, and a long-running daemon's resident heap stays
// flat no matter how many jobs touch the graph. The pages themselves
// are page-cache-backed and reclaimable by the OS, so deliberately
// never unmapping leaks address space, not memory.
func OpenStore(name string, seed int64) (*graph.Graph, error) {
	if !IsStoreFile(name) {
		if g := ByName(name, seed); g != nil {
			return g, nil
		}
		return nil, fmt.Errorf("dataset: unknown dataset %q (have: %s; or a path to a packed %s file)",
			name, strings.Join(Names(), ", "), graphstore.Ext)
	}
	abs, err := filepath.Abs(name)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	storeMu.Lock()
	defer storeMu.Unlock()
	if g, ok := storeCache[abs]; ok {
		return g, nil
	}
	g, err := graphstore.Open(abs)
	if err != nil {
		return nil, err
	}
	storeCache[abs] = g
	return g, nil
}
