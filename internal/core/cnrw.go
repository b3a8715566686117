package core

import (
	"math/bits"
	"math/rand"
	"slices"

	"histwalk/internal/access"
	"histwalk/internal/graph"
)

// circTable holds a walker's circulation states: the sets b(u,v) of
// Algorithm 1, one per directed edge the walk has traversed, each kept
// as a bitmap over the positions of N(v). An edge owns one segment of
// ⌈k_v/64⌉ words in a shared slab; bit i is set once the i-th neighbor
// (in list order) has been chosen in the current circulation, and the
// bitmap clears when |b(u,v)| reaches k_v. The walk therefore stores
// b(u,v) itself — O(k_v/64) words per traversed edge, the amortized
// O(K) space of §3.3 — and never a copy of N(v): positions are sound
// because a client's neighbor list is element-wise stable across
// queries (see access.Client).
//
// A draw takes rng.Intn(k−|b|) and returns the idx-th position not in
// b(u,v), in list order, found with one popcount per word. That is the
// element the historical map-based scan selected (the idx-th unused
// neighbor in list order), so every trajectory is bit-identical to it.
type circTable struct {
	segs []circSeg
	bits []uint64
}

// circSeg is one edge's segment header.
type circSeg struct {
	off  int32 // first word of the segment's bitmap in bits
	k    int32 // positions in the circulation
	used int32 // |b(u,v)|
}

// circWords is the bitmap length of a k-position circulation.
func circWords(k int) int { return (k + 63) >> 6 }

// alloc reserves a segment over k positions with b(u,v) = ∅ and
// returns its index.
func (t *circTable) alloc(k int) int32 {
	si := int32(len(t.segs))
	t.segs = append(t.segs, circSeg{off: int32(len(t.bits)), k: int32(k)})
	t.bits = append(t.bits, make([]uint64, circWords(k))...)
	return si
}

// reset restarts segment si's circulation over k positions. A segment
// whose bitmap no longer fits k moves to fresh words at the end of the
// slab.
func (t *circTable) reset(si int32, k int) {
	s := &t.segs[si]
	if circWords(k) > circWords(int(s.k)) {
		s.off = int32(len(t.bits))
		t.bits = append(t.bits, make([]uint64, circWords(k))...)
	} else {
		clear(t.words(si))
	}
	s.k, s.used = int32(k), 0
}

// words returns segment si's bitmap.
func (t *circTable) words(si int32) []uint64 {
	s := &t.segs[si]
	return t.bits[s.off : int(s.off)+circWords(int(s.k))]
}

// nthFree returns the idx-th position of segment si not in b(u,v), in
// list order. idx must lie in [0, k−|b(u,v)|).
func (t *circTable) nthFree(si int32, idx int) int {
	for i, w := range t.words(si) {
		free := ^w
		if n := bits.OnesCount64(free); idx >= n {
			idx -= n
			continue
		}
		return i<<6 + select64(free, idx)
	}
	panic("core: circulation index out of range")
}

// mark adds position pos to segment si's b(u,v) and reports whether
// that completed the circulation, which resets b(u,v) to ∅.
func (t *circTable) mark(si int32, pos int) (completed bool) {
	s := &t.segs[si]
	ws := t.words(si)
	ws[pos>>6] |= 1 << (pos & 63)
	if s.used++; s.used < s.k {
		return false
	}
	clear(ws)
	s.used = 0
	return true
}

// draw chooses a uniform position of segment si not in b(u,v), records
// it and returns it. The segment must have k > 0. It is nthFree and
// mark in one pass over the bitmap: the CNRW family's hot path.
func (t *circTable) draw(rng *rand.Rand, si int32) int {
	s := &t.segs[si]
	ws := t.bits[s.off : int(s.off)+circWords(int(s.k))]
	idx := rng.Intn(int(s.k - s.used))
	for i, w := range ws {
		free := ^w
		if n := bits.OnesCount64(free); idx >= n {
			idx -= n
			continue
		}
		b := select64(free, idx)
		if s.used++; s.used < s.k {
			ws[i] = w | 1<<b
		} else {
			clear(ws)
			s.used = 0
		}
		return i<<6 + b
	}
	panic("core: circulation index out of range")
}

// pick draws uniformly at random from ns minus segment si's b(u,v),
// records the draw, and returns the chosen neighbor. ns must be
// non-empty; a segment whose size no longer matches ns restarts its
// circulation (defensive: cannot happen over a stable client).
func (t *circTable) pick(rng *rand.Rand, si int32, ns []graph.Node) graph.Node {
	if int(t.segs[si].k) != len(ns) {
		t.reset(si, len(ns))
	}
	return ns[t.draw(rng, si)]
}

// state reports the fill level |b(u,v)| of segment si and whether
// position pos is currently in b(u,v).
func (t *circTable) state(si int32, pos int) (fill int, contains bool) {
	s := t.segs[si]
	if pos < 0 || pos >= int(s.k) {
		return int(s.used), false
	}
	return int(s.used), t.words(si)[pos>>6]&(1<<(pos&63)) != 0
}

// select64 returns the position of the (j+1)-th set bit of x, which
// must have more than j set bits: a popcount descent to the byte, then
// one table lookup.
func select64(x uint64, j int) int {
	pos := 0
	if n := bits.OnesCount32(uint32(x)); j >= n {
		j -= n
		x >>= 32
		pos = 32
	}
	if n := bits.OnesCount16(uint16(x)); j >= n {
		j -= n
		x >>= 16
		pos += 16
	}
	if n := bits.OnesCount8(uint8(x)); j >= n {
		j -= n
		x >>= 8
		pos += 8
	}
	return pos + int(selectInByte[j&7][uint8(x)])
}

// selectInByte[j][b] is the position of the (j+1)-th set bit of b.
var selectInByte = func() (t [8][256]uint8) {
	for b := range 256 {
		j := 0
		for p := range 8 {
			if b&(1<<p) != 0 {
				t[j][b] = uint8(p)
				j++
			}
		}
	}
	return t
}()

// CNRW is the Circulated Neighbors Random Walk (Algorithm 1): a
// history-aware, higher-order Markov chain. Given the previous
// transition u→v, the next node is drawn uniformly *without replacement*
// from N(v): successors already chosen after a previous traversal of the
// directed edge u→v are excluded until every neighbor of v has been
// chosen once, at which point the memory b(u,v) resets. Theorem 1 shows
// CNRW keeps SRW's stationary distribution π(v)=k_v/2|E|; Theorem 2
// shows its asymptotic variance never exceeds SRW's.
//
// The first transition out of the start node (which has no incoming
// edge) is a plain SRW step.
type CNRW struct {
	client  access.Client
	rng     *rand.Rand
	prev    graph.Node // -1 before the first transition
	cur     graph.Node
	steps   int
	history map[edgeKey]int32 // directed edge → circTable segment
	circ    circTable
	nbuf    []graph.Node
}

// NewCNRW returns a circulated-neighbors walk starting at start.
func NewCNRW(c access.Client, start graph.Node, rng *rand.Rand) *CNRW {
	return &CNRW{
		client:  c,
		rng:     rng,
		prev:    -1,
		cur:     start,
		history: make(map[edgeKey]int32),
	}
}

// Name implements Walker.
func (w *CNRW) Name() string { return "CNRW" }

// Current implements Walker.
func (w *CNRW) Current() graph.Node { return w.cur }

// Steps implements Walker.
func (w *CNRW) Steps() int { return w.steps }

// HistorySize returns the number of directed edges with live circulation
// state, exposing the O(K) space bound of §3.3 to tests and benches.
func (w *CNRW) HistorySize() int { return len(w.history) }

// CirculationState reports the fill level |b(u,v)| of the directed edge
// u→v and whether x is currently in b(u,v). nv is N(v) as the walk's
// client lists it: b(u,v) holds positions in that list, and taking the
// list from the caller keeps the call free of queries. It exists so
// experiments can verify the per-fill-level escape hazards of Theorem
// 3; samplers do not need it.
func (w *CNRW) CirculationState(u, v, x graph.Node, nv []graph.Node) (fill int, contains bool) {
	si, ok := w.history[packEdge(u, v)]
	if !ok {
		return 0, false
	}
	return w.circ.state(si, slices.Index(nv, x))
}

// Step implements Walker.
func (w *CNRW) Step() (graph.Node, error) {
	ns, err := w.client.NeighborsAppend(w.nbuf[:0], w.cur)
	if err != nil {
		return w.cur, err
	}
	w.nbuf = ns
	if len(ns) == 0 {
		return w.cur, errDeadEnd(w.cur)
	}
	var next graph.Node
	if w.prev < 0 {
		next = uniformPick(w.rng, ns)
	} else {
		k := packEdge(w.prev, w.cur)
		si, ok := w.history[k]
		if !ok {
			si = w.circ.alloc(len(ns))
			w.history[k] = si
		}
		next = w.circ.pick(w.rng, si, ns)
	}
	w.prev = w.cur
	w.cur = next
	w.steps++
	return w.cur, nil
}

// CNRWFactory returns the Factory for CNRW.
func CNRWFactory() Factory {
	return Factory{Name: "CNRW", New: func(c access.Client, s graph.Node, r *rand.Rand) Walker {
		return NewCNRW(c, s, r)
	}}
}

// CNRWNode is the node-based circulation variant that §3.2 argues
// against: the without-replacement memory is keyed by the current node v
// alone, ignoring the incoming edge. It shares SRW's stationary
// distribution but its path blocks (separated by node recurrences) are
// shorter, giving a weaker variance reduction — it exists here for the
// edge-vs-node ablation bench.
type CNRWNode struct {
	client  access.Client
	rng     *rand.Rand
	cur     graph.Node
	steps   int
	history map[graph.Node]int32
	circ    circTable
	nbuf    []graph.Node
}

// NewCNRWNode returns a node-keyed circulated walk starting at start.
func NewCNRWNode(c access.Client, start graph.Node, rng *rand.Rand) *CNRWNode {
	return &CNRWNode{
		client:  c,
		rng:     rng,
		cur:     start,
		history: make(map[graph.Node]int32),
	}
}

// Name implements Walker.
func (w *CNRWNode) Name() string { return "CNRW-node" }

// Current implements Walker.
func (w *CNRWNode) Current() graph.Node { return w.cur }

// Steps implements Walker.
func (w *CNRWNode) Steps() int { return w.steps }

// Step implements Walker.
func (w *CNRWNode) Step() (graph.Node, error) {
	ns, err := w.client.NeighborsAppend(w.nbuf[:0], w.cur)
	if err != nil {
		return w.cur, err
	}
	w.nbuf = ns
	if len(ns) == 0 {
		return w.cur, errDeadEnd(w.cur)
	}
	si, ok := w.history[w.cur]
	if !ok {
		si = w.circ.alloc(len(ns))
		w.history[w.cur] = si
	}
	w.cur = w.circ.pick(w.rng, si, ns)
	w.steps++
	return w.cur, nil
}

// CNRWNodeFactory returns the Factory for the node-based ablation
// variant.
func CNRWNodeFactory() Factory {
	return Factory{Name: "CNRW-node", New: func(c access.Client, s graph.Node, r *rand.Rand) Walker {
		return NewCNRWNode(c, s, r)
	}}
}

// NBCNRW layers CNRW's without-replacement rule on top of NB-SRW (§5):
// upon traversing u→v, the next node is drawn without replacement from
// N(v)\{u} (instead of N(v)), circulating through the k_v−1
// non-backtracking successors before the per-edge memory resets. When
// k_v = 1 the walk must backtrack.
type NBCNRW struct {
	client  access.Client
	rng     *rand.Rand
	prev    graph.Node
	cur     graph.Node
	steps   int
	history map[edgeKey]nbEdge
	circ    circTable
	nbuf    []graph.Node
}

// nbEdge is NB-CNRW's history of the directed edge u→v: its circTable
// segment, whose positions index N(v)\{u} in list order, and the
// position of u in N(v) (-1 if absent), which maps a segment position
// back to N(v).
type nbEdge struct {
	si   int32
	skip int32
}

// candidates is |N(v)\{u}| for v's neighbor list ns.
func (e nbEdge) candidates(ns []graph.Node) int {
	if e.skip < 0 {
		return len(ns)
	}
	return len(ns) - 1
}

// NewNBCNRW returns a non-backtracking circulated walk starting at
// start.
func NewNBCNRW(c access.Client, start graph.Node, rng *rand.Rand) *NBCNRW {
	return &NBCNRW{
		client:  c,
		rng:     rng,
		prev:    -1,
		cur:     start,
		history: make(map[edgeKey]nbEdge),
	}
}

// Name implements Walker.
func (w *NBCNRW) Name() string { return "NB-CNRW" }

// Current implements Walker.
func (w *NBCNRW) Current() graph.Node { return w.cur }

// Steps implements Walker.
func (w *NBCNRW) Steps() int { return w.steps }

// Step implements Walker.
func (w *NBCNRW) Step() (graph.Node, error) {
	ns, err := w.client.NeighborsAppend(w.nbuf[:0], w.cur)
	if err != nil {
		return w.cur, err
	}
	w.nbuf = ns
	if len(ns) == 0 {
		return w.cur, errDeadEnd(w.cur)
	}
	var next graph.Node
	switch {
	case w.prev < 0:
		next = uniformPick(w.rng, ns)
	case len(ns) == 1:
		next = ns[0] // forced backtrack at a degree-1 node
	default:
		// The candidate set N(v)\{prev} is never materialized: the
		// segment draws a position among its k candidates, and positions
		// at or past prev's shift up by one.
		key := packEdge(w.prev, w.cur)
		e, ok := w.history[key]
		if !ok || int(w.circ.segs[e.si].k) != e.candidates(ns) {
			// First traversal, or the list changed size (defensive:
			// cannot happen over a stable client): locate prev and
			// restart the circulation.
			e.skip = int32(slices.Index(ns, w.prev))
			k := e.candidates(ns)
			if ok {
				w.circ.reset(e.si, k)
			} else {
				e.si = w.circ.alloc(k)
			}
			w.history[key] = e
		}
		pos := w.circ.draw(w.rng, e.si)
		if e.skip >= 0 && pos >= int(e.skip) {
			pos++
		}
		next = ns[pos]
	}
	w.prev = w.cur
	w.cur = next
	w.steps++
	return w.cur, nil
}

// NBCNRWFactory returns the Factory for NB-CNRW.
func NBCNRWFactory() Factory {
	return Factory{Name: "NB-CNRW", New: func(c access.Client, s graph.Node, r *rand.Rand) Walker {
		return NewNBCNRW(c, s, r)
	}}
}
