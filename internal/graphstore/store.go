package graphstore

import (
	"fmt"
	"sort"

	"histwalk/internal/graph"
)

// Store is the read-only graph view the rest of the library consumes:
// the access simulators, the session layer and the trial helpers all
// talk to a Store, never to a concrete representation, so swapping the
// heap CSR for a memory mapping is invisible to walkers — trajectories
// and query costs are bit-identical for a fixed seed regardless of
// backend.
//
// Two backends implement it:
//
//   - *graph.Graph, the in-memory heap CSR (its method set is the
//     interface — the interface was carved from it);
//   - *Mapped, the mmap-backed reader over a .hwg file, which serves
//     the same rows zero-copy out of the mapping.
//
// Neighbors must return the node's sorted neighbor list aliasing
// storage that stays valid and element-wise unchanged for the Store's
// lifetime, and must not be modified by callers. Stores must be safe for concurrent readers;
// neither backend mutates after construction.
type Store interface {
	// Name returns the human-readable dataset name ("" if unset).
	Name() string
	// NumNodes returns |V|; nodes are dense integers in [0, NumNodes).
	NumNodes() int
	// NumEdges returns |E| counting each self-loop as one edge.
	NumEdges() int
	// NumSelfLoops returns the number of self-loops (stored once each).
	NumSelfLoops() int
	// Degree returns k_v = |N(v)|; a self-loop contributes one.
	Degree(v graph.Node) int
	// Neighbors returns v's sorted neighbor list, zero-copy.
	Neighbors(v graph.Node) []graph.Node
	// HasEdge reports whether the undirected edge {u,v} exists.
	HasEdge(u, v graph.Node) bool
	// Attr returns the named per-node attribute vector, aliasing
	// storage, and whether it exists.
	Attr(name string) ([]float64, bool)
	// AttrValue returns node v's value of the named attribute.
	AttrValue(name string, v graph.Node) (float64, bool)
	// AttrNames returns the sorted registered attribute names.
	AttrNames() []string
}

// The heap backend is the graph package's CSR itself.
var _ Store = (*graph.Graph)(nil)

// Validate checks the full CSR invariants of any Store — monotone
// offsets are implied by Degree/Neighbors, so it checks what a backend
// could still get wrong: in-range targets, strictly sorted rows,
// symmetric arcs, self-loop accounting and attribute lengths. It is
// the storage-generic twin of graph.Graph.Validate, O(|E| log d), and
// the structural half of the .hwg verifier.
func Validate(st Store) error {
	n := st.NumNodes()
	loops := 0
	for v := 0; v < n; v++ {
		ns := st.Neighbors(graph.Node(v))
		for i, u := range ns {
			if u == graph.Node(v) {
				loops++
			}
			if u < 0 || int(u) >= n {
				return fmt.Errorf("graphstore: node %d has out-of-range neighbor %d", v, u)
			}
			if i > 0 && ns[i-1] >= u {
				return fmt.Errorf("graphstore: neighbors of %d not strictly sorted at index %d", v, i)
			}
			if !st.HasEdge(u, graph.Node(v)) {
				return fmt.Errorf("graphstore: asymmetric edge %d->%d", v, u)
			}
		}
	}
	if loops != st.NumSelfLoops() {
		return fmt.Errorf("graphstore: %d self-loops stored but %d accounted (NumEdges would be wrong)", loops, st.NumSelfLoops())
	}
	for _, name := range st.AttrNames() {
		vs, ok := st.Attr(name)
		if !ok || len(vs) != n {
			return fmt.Errorf("graphstore: attribute %q has %d values, want %d", name, len(vs), n)
		}
	}
	return nil
}

// searchNodes is sort.SearchInts for node slices: the smallest index
// with ns[i] >= v.
func searchNodes(ns []graph.Node, v graph.Node) int {
	return sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
}
