package histwalk

// Root re-exports for the out-of-core graph storage layer
// (internal/graphstore): the versioned binary CSR file format (".hwg"),
// the pluggable Store interface with its heap (*Graph) and mmap
// (*MappedGraph) backends, the streaming edge-list converter, and the
// store-aware simulator constructors. The house invariant holds across
// backends: for a fixed seed, walker trajectories and query costs are
// bit-identical whether a graph is served from the heap or from a
// memory mapping.

import (
	"io"

	"histwalk/internal/access"
	"histwalk/internal/dataset"
	"histwalk/internal/graphstore"
)

// GraphStore is the read-only storage interface the simulators and the
// session layer consume. *Graph satisfies it (heap backend), as does
// *MappedGraph (mmap backend over a .hwg file).
type GraphStore = graphstore.Store

// MappedGraph is the mmap-backed GraphStore over a .hwg file: neighbor
// rows are served zero-copy out of the page cache, so resident heap is
// independent of graph size.
type MappedGraph = graphstore.Mapped

// PackOptions configures PackEdgeList.
type PackOptions = graphstore.PackOptions

// PackStats reports what a PackEdgeList run did.
type PackStats = graphstore.PackStats

// StoreExt is the conventional .hwg file extension.
const StoreExt = graphstore.Ext

// OpenGraphStore maps the .hwg file at path (header-validated in O(1);
// use VerifyGraphStore for the full checksum + invariant pass). Close
// the returned store to release the mapping.
func OpenGraphStore(path string) (*MappedGraph, error) { return graphstore.Open(path) }

// WriteGraphStore serializes any GraphStore to a .hwg file at path.
func WriteGraphStore(path string, st GraphStore) error { return graphstore.WriteFile(path, st) }

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

// NewSimulatorStore returns a Simulator over any storage backend; see
// NewSimulator for the heap shorthand.
func NewSimulatorStore(st GraphStore) *Simulator { return access.NewSimulatorStore(st) }

// OpenDatasetStore resolves a dataset reference — a built-in stand-in
// name (DatasetNames) or a path to a packed .hwg file — to a storage
// backend. Mapped stores are cached process-wide and stay open.
func OpenDatasetStore(name string, seed int64) (GraphStore, error) {
	return dataset.OpenStore(name, seed)
}
