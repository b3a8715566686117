package histwalk

// Root re-exports for the out-of-core graph storage layer
// (internal/graphstore): the versioned binary CSR file format (".hwg"),
// its writers and the streaming edge-list converter, and the reader,
// which opens a packed file as an ordinary *Graph over a memory mapping.
// The house invariant holds across the two: for a fixed seed, walker
// trajectories and query costs are bit-identical whether a graph was
// built on the heap or opened from a .hwg file.

import (
	"io"

	"histwalk/internal/dataset"
	"histwalk/internal/graphstore"
)

// GraphStore names what OpenGraphStore returns: a *Graph like any
// other. perfbench/crawl.go spells a parameter with it.
type GraphStore = *Graph

// PackOptions configures PackEdgeList.
type PackOptions = graphstore.PackOptions

// PackStats reports what a PackEdgeList run did.
type PackStats = graphstore.PackStats

// StoreExt is the conventional .hwg file extension.
const StoreExt = graphstore.Ext

// OpenGraphStore maps the .hwg file at path and returns its graph,
// whose rows are served zero-copy out of the page cache (header
// validated in O(1 + #attrs); use VerifyGraphStore for the full
// checksum + invariant pass). Close the graph to release the mapping.
func OpenGraphStore(path string) (*Graph, error) { return graphstore.Open(path) }

// WriteGraphStore serializes g to a .hwg file at path.
func WriteGraphStore(path string, g *Graph) error { return graphstore.WriteFile(path, g) }

// PackEdgeList streams a text edge list (gzip sniffed) into a .hwg
// file in bounded memory via external sort; the output is
// byte-identical to WriteGraphStore over ReadEdgeList of the same
// input. It is the library form of `graphpack pack`.
func PackEdgeList(edges io.Reader, out string, opts PackOptions) (*PackStats, error) {
	return graphstore.Pack(edges, out, opts)
}

// VerifyGraphStore opens path and runs the full integrity pass:
// header, section checksums, and the CSR invariants (sorted rows,
// symmetric arcs, self-loop accounting).
func VerifyGraphStore(path string) error { return graphstore.VerifyFile(path) }

// OpenDatasetStore resolves a dataset reference — a built-in stand-in
// name (DatasetNames) or a path to a packed .hwg file — to a graph.
// Mapped graphs are cached process-wide and stay open.
func OpenDatasetStore(name string, seed int64) (*Graph, error) {
	return dataset.OpenStore(name, seed)
}
