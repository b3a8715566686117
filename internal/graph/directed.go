package graph

// Directed-graph support for the access-model casting of §2.1: real
// OSNs such as Twitter expose directed follower/followee edges, and the
// paper casts them to the undirected model either by keeping an edge
// when BOTH directions exist (the "mutual" conversion used for the
// Google Plus and Yelp crawls in §6.1) or when EITHER direction exists.

import (
	"fmt"
	"io"
	"sort"
)

// Digraph is an immutable simple directed graph in CSR form (out- and
// in-adjacency). Build one with a DigraphBuilder or ReadDirectedEdgeList.
type Digraph struct {
	name       string
	outOffsets []int64
	outTargets []Node
	inOffsets  []int64
	inTargets  []Node
}

// Name returns the dataset name.
func (d *Digraph) Name() string { return d.name }

// SetName sets the dataset name.
func (d *Digraph) SetName(name string) { d.name = name }

// NumNodes returns |V|.
func (d *Digraph) NumNodes() int {
	if len(d.outOffsets) == 0 {
		return 0
	}
	return len(d.outOffsets) - 1
}

// NumArcs returns the number of directed arcs.
func (d *Digraph) NumArcs() int { return len(d.outTargets) }

// OutNeighbors returns the sorted out-neighbor list of v (aliases
// internal storage).
func (d *Digraph) OutNeighbors(v Node) []Node {
	return d.outTargets[d.outOffsets[v]:d.outOffsets[v+1]]
}

// InNeighbors returns the sorted in-neighbor list of v (aliases internal
// storage).
func (d *Digraph) InNeighbors(v Node) []Node {
	return d.inTargets[d.inOffsets[v]:d.inOffsets[v+1]]
}

// OutDegree returns the out-degree of v.
func (d *Digraph) OutDegree(v Node) int {
	return int(d.outOffsets[v+1] - d.outOffsets[v])
}

// InDegree returns the in-degree of v.
func (d *Digraph) InDegree(v Node) int {
	return int(d.inOffsets[v+1] - d.inOffsets[v])
}

// HasArc reports whether the arc u→v exists.
func (d *Digraph) HasArc(u, v Node) bool {
	ns := d.OutNeighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// DigraphBuilder accumulates arcs and produces a Digraph. Self-loops and
// duplicate arcs are dropped.
type DigraphBuilder struct {
	n   int
	out []map[Node]struct{}
}

// NewDigraphBuilder returns a builder pre-sized for n nodes.
func NewDigraphBuilder(n int) *DigraphBuilder {
	b := &DigraphBuilder{}
	b.EnsureNodes(n)
	return b
}

// EnsureNodes grows the node set to at least n nodes.
func (b *DigraphBuilder) EnsureNodes(n int) {
	for b.n < n {
		b.out = append(b.out, nil)
		b.n++
	}
}

// NumNodes returns the current node count.
func (b *DigraphBuilder) NumNodes() int { return b.n }

// AddArc inserts the directed arc u→v, reporting whether it was new.
func (b *DigraphBuilder) AddArc(u, v Node) bool {
	if u == v || u < 0 || v < 0 {
		return false
	}
	hi := u
	if v > hi {
		hi = v
	}
	b.EnsureNodes(int(hi) + 1)
	if b.out[u] == nil {
		b.out[u] = make(map[Node]struct{})
	}
	if _, dup := b.out[u][v]; dup {
		return false
	}
	b.out[u][v] = struct{}{}
	return true
}

// HasArc reports whether u→v has been added.
func (b *DigraphBuilder) HasArc(u, v Node) bool {
	if u < 0 || int(u) >= b.n {
		return false
	}
	_, ok := b.out[u][v]
	return ok
}

// NumArcs returns the number of distinct arcs added.
func (b *DigraphBuilder) NumArcs() int {
	total := 0
	for _, m := range b.out {
		total += len(m)
	}
	return total
}

// Build freezes the accumulated arcs into an immutable Digraph.
func (b *DigraphBuilder) Build() *Digraph {
	d := &Digraph{
		outOffsets: make([]int64, b.n+1),
		inOffsets:  make([]int64, b.n+1),
	}
	inCount := make([]int64, b.n)
	var total int64
	for v := 0; v < b.n; v++ {
		d.outOffsets[v] = total
		total += int64(len(b.out[v]))
		for u := range b.out[v] {
			inCount[u]++
		}
	}
	d.outOffsets[b.n] = total
	d.outTargets = make([]Node, total)
	for v := 0; v < b.n; v++ {
		dst := d.outTargets[d.outOffsets[v]:d.outOffsets[v+1]]
		i := 0
		for u := range b.out[v] {
			dst[i] = u
			i++
		}
		sort.Slice(dst, func(a, b int) bool { return dst[a] < dst[b] })
	}
	var inTotal int64
	for v := 0; v < b.n; v++ {
		d.inOffsets[v] = inTotal
		inTotal += inCount[v]
	}
	d.inOffsets[b.n] = inTotal
	d.inTargets = make([]Node, inTotal)
	cursor := make([]int64, b.n)
	for v := 0; v < b.n; v++ {
		for u := range b.out[v] {
			d.inTargets[d.inOffsets[u]+cursor[u]] = Node(v)
			cursor[u]++
		}
	}
	for v := 0; v < b.n; v++ {
		seg := d.inTargets[d.inOffsets[v]:d.inOffsets[v+1]]
		sort.Slice(seg, func(a, b int) bool { return seg[a] < seg[b] })
	}
	return d
}

// Mutual casts the directed graph to the undirected access model by
// keeping an undirected edge {u,v} only when BOTH u→v and v→u exist —
// the conversion used for the paper's Google Plus and Yelp datasets
// (§6.1), which guarantees any undirected walk is realizable on the
// original directed interface.
func (d *Digraph) Mutual() *Graph {
	b := NewBuilder(d.NumNodes())
	for u := 0; u < d.NumNodes(); u++ {
		for _, v := range d.OutNeighbors(Node(u)) {
			if Node(u) < v && d.HasArc(v, Node(u)) {
				b.AddEdge(Node(u), v)
			}
		}
	}
	g := b.Build()
	g.SetName(d.name + "-mutual")
	return g
}

// Either casts the directed graph to an undirected one by keeping an
// edge when either direction exists (the alternative conversion §2.1
// mentions: e_uv exists if u→v or v→u).
func (d *Digraph) Either() *Graph {
	b := NewBuilder(d.NumNodes())
	for u := 0; u < d.NumNodes(); u++ {
		for _, v := range d.OutNeighbors(Node(u)) {
			b.AddEdge(Node(u), v)
		}
	}
	g := b.Build()
	g.SetName(d.name + "-either")
	return g
}

// Reciprocity returns the fraction of arcs whose reverse arc also
// exists (1.0 for a fully mutual graph).
func (d *Digraph) Reciprocity() float64 {
	if d.NumArcs() == 0 {
		return 0
	}
	mutual := 0
	for u := 0; u < d.NumNodes(); u++ {
		for _, v := range d.OutNeighbors(Node(u)) {
			if d.HasArc(v, Node(u)) {
				mutual++
			}
		}
	}
	return float64(mutual) / float64(d.NumArcs())
}

// ReadDirectedEdgeList parses "u v" arc lines (ReadEdgeList's dialect,
// gzip included) into a Digraph with densely relabeled nodes.
func ReadDirectedEdgeList(r io.Reader) (*Digraph, map[int64]Node, error) {
	pairs, remap, err := readPairs(r)
	if err != nil {
		return nil, nil, err
	}
	b := NewDigraphBuilder(len(remap))
	for _, p := range pairs {
		b.AddArc(remap[p[0]], remap[p[1]])
	}
	return b.Build(), remap, nil
}

// RandomDigraph generates a directed graph where each undirected pair
// gets an arc in each direction independently with probability p, used
// for testing the casting conversions.
func RandomDigraph(n int, p float64, rng randSource) *Digraph {
	b := NewDigraphBuilder(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				b.AddArc(Node(u), Node(v))
			}
		}
	}
	d := b.Build()
	d.SetName(fmt.Sprintf("digraph-%d", n))
	return d
}

// randSource is the minimal randomness dependency of RandomDigraph,
// satisfied by *math/rand.Rand.
type randSource interface {
	Float64() float64
}
