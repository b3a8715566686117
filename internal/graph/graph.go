// Package graph provides the in-memory undirected graph substrate used by
// the histwalk samplers, estimators and experiment harness.
//
// The package implements:
//
//   - a compact CSR (compressed sparse row) adjacency representation with
//     per-node float64 attributes (Graph);
//   - an incremental, deduplicating Builder;
//   - synthetic generators (complete, barbell, clustered cliques,
//     Erdős–Rényi, Barabási–Albert, Watts–Strogatz, planted partition,
//     star, cycle, path, grid) in generators.go;
//   - topology statistics (degree moments, clustering coefficients,
//     triangle counts, connected components) in stats.go;
//   - plain-text edge-list and attribute I/O in io.go.
//
// Graphs are undirected with no parallel edges: for every stored arc
// u→v between distinct nodes the reverse arc v→u is stored too,
// matching the access model of the paper (§2.1), which casts directed
// OSNs into undirected graphs. Self-loops are dropped by default (the
// paper's datasets are loop-free) but may be admitted explicitly via
// Builder.AllowSelfLoops; the CSR convention is then:
//
//   - a self-loop at v is stored ONCE in v's neighbor list (v appears
//     in its own sorted list exactly once), so Degree(v) = |N(v)|
//     counts the loop once — the size of the neighbor list the access
//     model would return for v;
//   - NumEdges counts the loop as one edge, accounting for its single
//     storage slot exactly: |E| = (len(targets) + loops) / 2;
//   - the simple random walk's stationary distribution remains
//     π(v) = k_v / Σ_u k_u (TheoreticalStationary), which detailed
//     balance shows is exact under this convention, loops included.
package graph

import (
	"fmt"
	"sort"
	"sync"
)

// Node identifies a vertex. Nodes are dense integers in [0, NumNodes).
// int32 keeps adjacency arrays compact for multi-million-edge graphs.
type Node = int32

// Graph is an immutable simple undirected graph in CSR form with optional
// named per-node attributes. The zero value is an empty graph; use a
// Builder or a generator to construct non-trivial instances, or
// AdoptCSR to wrap arrays that live elsewhere (a mapped .hwg file).
type Graph struct {
	name    string
	offsets []int64 // len NumNodes+1; neighbor list of v is targets[offsets[v]:offsets[v+1]]
	targets []Node  // concatenated sorted neighbor lists
	loops   int     // number of self-loops; each occupies ONE slot in targets
	attrs   map[string][]float64

	release   func() error // frees adopted storage; nil for heap graphs
	closeOnce sync.Once
	closeErr  error
}

// Name returns the human-readable dataset name ("" if unset).
func (g *Graph) Name() string { return g.name }

// SetName sets the human-readable dataset name.
func (g *Graph) SetName(name string) { g.name = name }

// NumNodes returns |V|.
func (g *Graph) NumNodes() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns |E|, the number of undirected edges, counting each
// self-loop as one edge. A loop occupies a single CSR slot while an
// edge between distinct nodes occupies two, so the exact count is
// (len(targets) + loops) / 2 — the former len(targets)/2 silently
// undercounted every self-loop by half an edge.
func (g *Graph) NumEdges() int { return (len(g.targets) + g.loops) / 2 }

// NumSelfLoops returns the number of self-loops (0 unless the graph
// was built with Builder.AllowSelfLoops).
func (g *Graph) NumSelfLoops() int { return g.loops }

// Degree returns k_v = |N(v)|, the length of v's neighbor list. A
// self-loop contributes one (v lists itself once), matching what the
// access model's neighborhood query would return.
func (g *Graph) Degree(v Node) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted neighbor list of v. The returned slice
// aliases the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v Node) []Node {
	return g.targets[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether the undirected edge {u,v} exists.
func (g *Graph) HasEdge(u, v Node) bool {
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// AvgDegree returns the mean degree Σ_v k_v / |V| — equal to 2|E|/|V|
// on loop-free graphs, and consistent with Degree's neighbor-list-length
// convention when self-loops are present (0 for the empty graph).
func (g *Graph) AvgDegree() float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	return float64(len(g.targets)) / float64(n)
}

// MaxDegree returns the maximum degree over all nodes (0 for the empty
// graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.Degree(Node(v)); d > max {
			max = d
		}
	}
	return max
}

// MinDegree returns the minimum degree over all nodes (0 for the empty
// graph).
func (g *Graph) MinDegree() int {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	min := g.Degree(0)
	for v := 1; v < n; v++ {
		if d := g.Degree(Node(v)); d < min {
			min = d
		}
	}
	return min
}

// SetAttr attaches (or replaces) a named per-node attribute vector. The
// slice length must equal NumNodes.
func (g *Graph) SetAttr(name string, values []float64) error {
	if len(values) != g.NumNodes() {
		return fmt.Errorf("graph: attribute %q has %d values, want %d", name, len(values), g.NumNodes())
	}
	if g.attrs == nil {
		g.attrs = make(map[string][]float64)
	}
	g.attrs[name] = values
	return nil
}

// Attr returns the attribute vector registered under name and whether it
// exists. The returned slice aliases internal storage.
func (g *Graph) Attr(name string) ([]float64, bool) {
	vs, ok := g.attrs[name]
	return vs, ok
}

// AttrValue returns node v's value of the named attribute. Unknown
// attribute names yield 0, false.
func (g *Graph) AttrValue(name string, v Node) (float64, bool) {
	vs, ok := g.attrs[name]
	if !ok {
		return 0, false
	}
	return vs[v], true
}

// AttrNames returns the sorted list of registered attribute names.
func (g *Graph) AttrNames() []string {
	names := make([]string, 0, len(g.attrs))
	for n := range g.attrs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DegreeAttr materializes node degrees as a float64 attribute vector.
// It is the measure function used by the paper's "average degree"
// aggregate and by the GNRW By-Degree grouper.
func (g *Graph) DegreeAttr() []float64 {
	n := g.NumNodes()
	out := make([]float64, n)
	for v := 0; v < n; v++ {
		out[v] = float64(g.Degree(Node(v)))
	}
	return out
}

// TheoreticalStationary returns the stationary distribution of a simple
// random walk on g: π(v) = k_v / Σ_u k_u, which is k_v / 2|E|
// (Definition 2 / Eq. 3 of the paper) on loop-free graphs and remains
// exact — by detailed balance — under the loop-stored-once convention
// when self-loops are admitted. Degree-0 nodes get probability 0.
func (g *Graph) TheoreticalStationary() []float64 {
	n := g.NumNodes()
	out := make([]float64, n)
	total := float64(len(g.targets))
	if total == 0 {
		return out
	}
	for v := 0; v < n; v++ {
		out[v] = float64(g.Degree(Node(v))) / total
	}
	return out
}

// Validate checks the full CSR invariants — offsets monotone from 0 to
// len(targets), in-range targets, strictly sorted rows (no duplicates),
// symmetric arcs, loop accounting and attribute lengths — and returns
// the first violation found. Self-loops are valid only when the loop
// counter covers them (they enter via Builder.AllowSelfLoops and are
// stored once). The offsets are checked before any row is read, so an
// adopted graph over untrusted bytes fails here instead of panicking.
// It is O(|E| log d).
func (g *Graph) Validate() error {
	n := g.NumNodes()
	if n > 0 {
		if g.offsets[0] != 0 {
			return fmt.Errorf("graph: offsets[0] = %d, want 0", g.offsets[0])
		}
		for v := 0; v < n; v++ {
			if g.offsets[v+1] < g.offsets[v] {
				return fmt.Errorf("graph: offsets not monotone at node %d", v)
			}
		}
		if end := g.offsets[n]; end != int64(len(g.targets)) {
			return fmt.Errorf("graph: offsets end at %d but targets has %d entries", end, len(g.targets))
		}
	}
	loops := 0
	for v := 0; v < n; v++ {
		ns := g.Neighbors(Node(v))
		for i, u := range ns {
			if u == Node(v) {
				loops++
			}
			if u < 0 || int(u) >= n {
				return fmt.Errorf("graph: node %d has out-of-range neighbor %d", v, u)
			}
			if i > 0 && ns[i-1] >= u {
				return fmt.Errorf("graph: neighbors of %d not strictly sorted at index %d", v, i)
			}
			if !g.HasEdge(u, Node(v)) {
				return fmt.Errorf("graph: asymmetric edge %d->%d", v, u)
			}
		}
	}
	if loops != g.loops {
		return fmt.Errorf("graph: %d self-loops stored but %d accounted (NumEdges would be wrong)", loops, g.loops)
	}
	for name, vs := range g.attrs {
		if len(vs) != n {
			return fmt.Errorf("graph: attribute %q has %d values, want %d", name, len(vs), n)
		}
	}
	return nil
}

// Edges invokes fn once per undirected edge {u,v} with u <= v
// (self-loops, stored once, are visited once as fn(v, v)). Iteration
// stops early if fn returns false.
func (g *Graph) Edges(fn func(u, v Node) bool) {
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(Node(u)) {
			if Node(u) <= v {
				if !fn(Node(u), v) {
					return
				}
			}
		}
	}
}

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges are silently dropped, as are self-loops unless AllowSelfLoops
// was called; node IDs may be added in any order. The zero value is
// ready to use.
type Builder struct {
	n          int
	adj        []map[Node]struct{}
	allowLoops bool
	loops      int // distinct self-loops added, maintained incrementally
}

// AllowSelfLoops makes subsequent AddEdge(v, v) calls store the loop
// (once, per the package's loop-stored-once CSR convention) instead of
// silently dropping it. Generators never enable this; the edge-list
// loader does, so datasets with loop lines round-trip with an exact
// NumEdges.
func (b *Builder) AllowSelfLoops() { b.allowLoops = true }

// NewBuilder returns a Builder pre-sized for n nodes. Nodes are
// implicitly created: AddEdge(u, v) grows the node set to max(u,v)+1.
func NewBuilder(n int) *Builder {
	b := &Builder{}
	b.EnsureNodes(n)
	return b
}

// EnsureNodes grows the node set to at least n nodes.
func (b *Builder) EnsureNodes(n int) {
	for b.n < n {
		b.adj = append(b.adj, nil)
		b.n++
	}
}

// NumNodes returns the current number of nodes.
func (b *Builder) NumNodes() int { return b.n }

// AddEdge inserts the undirected edge {u,v}. Self-loops are ignored
// unless AllowSelfLoops was called. It reports whether the edge was
// newly added.
func (b *Builder) AddEdge(u, v Node) bool {
	if u < 0 || v < 0 || (u == v && !b.allowLoops) {
		return false
	}
	hi := u
	if v > hi {
		hi = v
	}
	b.EnsureNodes(int(hi) + 1)
	if b.adj[u] == nil {
		b.adj[u] = make(map[Node]struct{})
	}
	if _, dup := b.adj[u][v]; dup {
		return false
	}
	b.adj[u][v] = struct{}{}
	if b.adj[v] == nil {
		b.adj[v] = make(map[Node]struct{})
	}
	b.adj[v][u] = struct{}{}
	if u == v {
		b.loops++
	}
	return true
}

// HasEdge reports whether {u,v} has been added.
func (b *Builder) HasEdge(u, v Node) bool {
	if u < 0 || int(u) >= b.n {
		return false
	}
	_, ok := b.adj[u][v]
	return ok
}

// Degree returns the current degree of u (0 for unknown nodes).
func (b *Builder) Degree(u Node) int {
	if u < 0 || int(u) >= b.n {
		return 0
	}
	return len(b.adj[u])
}

// NumEdges returns the number of distinct undirected edges added so
// far, counting each self-loop as one edge.
func (b *Builder) NumEdges() int {
	total := 0
	for _, m := range b.adj {
		total += len(m)
	}
	return (total + b.loops) / 2
}

// Build freezes the accumulated edges into an immutable Graph.
func (b *Builder) Build() *Graph {
	g := &Graph{
		offsets: make([]int64, b.n+1),
		loops:   b.loops,
		attrs:   make(map[string][]float64),
	}
	var total int64
	for v := 0; v < b.n; v++ {
		g.offsets[v] = total
		total += int64(len(b.adj[v]))
	}
	g.offsets[b.n] = total
	g.targets = make([]Node, total)
	for v := 0; v < b.n; v++ {
		dst := g.targets[g.offsets[v]:g.offsets[v+1]]
		i := 0
		for u := range b.adj[v] {
			dst[i] = u
			i++
		}
		sort.Slice(dst, func(a, b int) bool { return dst[a] < dst[b] })
	}
	return g
}

// AdoptCSR wraps pre-built CSR arrays in a Graph WITHOUT copying them:
// the returned graph aliases offsets and targets directly, so the
// graphstore package can serve a mapped .hwg file through the ordinary
// Graph API with zero resident heap. The arrays must obey this
// package's CSR conventions — offsets monotone from 0 with
// offsets[len-1] == len(targets), rows strictly sorted, arcs symmetric,
// self-loops stored once and counted by loops. Only the O(1) shape is
// checked here (the first and last offsets and the loop count); callers
// owning untrusted bytes run Validate themselves. The adopted arrays
// must stay live and unmodified until Close, which calls release (nil
// when there is nothing to free).
func AdoptCSR(name string, offsets []int64, targets []Node, loops int, release func() error) (*Graph, error) {
	if len(offsets) == 0 {
		return nil, fmt.Errorf("graph: AdoptCSR needs offsets of length NumNodes+1, got 0")
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("graph: AdoptCSR offsets[0] = %d, want 0", offsets[0])
	}
	if end := offsets[len(offsets)-1]; end != int64(len(targets)) {
		return nil, fmt.Errorf("graph: AdoptCSR offsets end at %d but targets has %d entries", end, len(targets))
	}
	if loops < 0 || loops > len(targets) {
		return nil, fmt.Errorf("graph: AdoptCSR loop count %d outside [0, %d]", loops, len(targets))
	}
	return &Graph{
		name:    name,
		offsets: offsets,
		targets: targets,
		loops:   loops,
		attrs:   make(map[string][]float64),
		release: release,
	}, nil
}

// Close releases the storage an adopted graph was built over (a file
// mapping) and empties the graph, so a later read fails as an index
// out of range rather than a fault; every Neighbors and Attr slice it
// handed out is invalid afterwards. Close on a heap graph does nothing.
// It may be called more than once.
func (g *Graph) Close() error {
	if g.release == nil {
		return nil
	}
	g.closeOnce.Do(func() {
		g.closeErr = g.release()
		g.offsets, g.targets, g.attrs = nil, nil, nil
	})
	return g.closeErr
}

// FromEdges builds a graph with n nodes from an explicit edge list.
// Out-of-range endpoints grow the node set; duplicates and self-loops are
// dropped.
func FromEdges(n int, edges [][2]Node) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}
