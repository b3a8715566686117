package core

import (
	"math/bits"
	"math/rand"

	"histwalk/internal/access"
	"histwalk/internal/graph"
)

// gnrwEdge is GNRW's history of one traversed edge u→v: b(u,v), the
// positions of N(v) chosen since the last full circulation, as a
// circTable segment (the same bitmap CNRW keeps), and R(u,v), the
// strata already chosen in the current group round (the paper's
// S(u,v)), as one flag per stratum in GNRW.round. GNRW.remaining
// holds, per stratum, the members not yet in b(u,v); it is maintained
// incrementally (decrement on pick, restore from the profile at each
// circulation's end) instead of recounted every step. The strata of
// N(v) themselves live in the node's shared, immutable profile.
type gnrwEdge struct {
	prof    *stratumProfile
	si      int32 // b(u,v) in GNRW.circ
	off     int32 // first stratum slot in GNRW.remaining and GNRW.round
	inRound int32 // number of set flags in R(u,v)
}

// GNRW is the GroupBy Neighbors Random Walk (Algorithm 2): a CNRW whose
// circulation is stratified. The neighbors of v are partitioned into
// strata by a deterministic Grouper; upon traversing u→v the walk first
// circulates among strata — choosing, without replacement within the
// current round, a stratum with probability proportional to its number
// of not-yet-attempted members — and then picks uniformly without
// replacement inside the chosen stratum.
//
// Interpretation note (documented in DESIGN.md): Algorithm 2 in the
// paper leaves the interaction between the group memory S(u,v) and the
// node memory b(u,v) underspecified when strata have unequal sizes. We
// implement the semantics that both (a) preserves the stationary
// distribution (every member of N(v) is chosen exactly once per full
// circulation of k_v transitions, so the path-block argument of Theorem
// 1/4 applies verbatim) and (b) maximizes stratum alternation: a
// stratum leaves the rotation once its members are exhausted, and the
// round set R resets whenever every stratum with remaining members has
// been chosen in the current round. With equal-size strata this is
// exactly the paper's description; with m = k_v singleton strata it
// degenerates to CNRW, matching §4.1's "one extreme".
type GNRW struct {
	client    access.Client
	grouper   Grouper
	rng       *rand.Rand
	prev      graph.Node
	cur       graph.Node
	steps     int
	history   map[edgeKey]int32 // directed edge → index into edges
	edges     []gnrwEdge
	circ      circTable
	remaining []int32 // per-stratum counts of every edge, at gnrwEdge.off
	round     []bool  // per-stratum round flags of every edge, at gnrwEdge.off
	// strata resolves and memoizes stratum assignments. ShareStrata may
	// hand one table to several walkers; otherwise the walker creates a
	// private one on its first stratified pick.
	strata *strataTable
	nbuf   []graph.Node // reused neighbor scratch (hot path, no allocs)
}

// NewGNRW returns a groupby-neighbors walk starting at start, using the
// given grouping strategy.
func NewGNRW(c access.Client, grouper Grouper, start graph.Node, rng *rand.Rand) *GNRW {
	return &GNRW{
		client:  c,
		grouper: grouper,
		rng:     rng,
		prev:    -1,
		cur:     start,
		history: make(map[edgeKey]int32),
	}
}

// Name implements Walker.
func (w *GNRW) Name() string { return "GNRW(" + w.grouper.Name() + ")" }

// Current implements Walker.
func (w *GNRW) Current() graph.Node { return w.cur }

// Steps implements Walker.
func (w *GNRW) Steps() int { return w.steps }

// HistorySize returns the number of directed edges with live history
// state (the O(K) space bound of §4.2).
func (w *GNRW) HistorySize() int { return len(w.history) }

// Step implements Walker.
func (w *GNRW) Step() (graph.Node, error) {
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
		next, err = w.stratifiedPick(ns)
		if err != nil {
			return w.cur, err
		}
	}
	w.prev = w.cur
	w.cur = next
	w.steps++
	return w.cur, nil
}

// stratifiedPick performs the GNRW transition from the directed edge
// prev→cur over the neighbor list ns of cur. The candidate order, skip
// predicates and single rng.Intn draw replicate the historical
// map-based implementation exactly, so trajectories are bit-identical;
// only the bookkeeping changed (strata read from the node's profile,
// b(u,v) a position bitmap, remaining counts maintained incrementally
// instead of recounted per step).
func (w *GNRW) stratifiedPick(ns []graph.Node) (graph.Node, error) {
	key := packEdge(w.prev, w.cur)
	ei, ok := w.history[key]
	if !ok || len(w.edges[ei].prof.gids) != len(ns) {
		// First traversal, or the list changed size under us (defensive:
		// cannot happen over a static network): (re)start the edge.
		if w.strata == nil {
			w.strata = newStrataTable(w.grouper)
		}
		p, err := w.strata.profile(w.client, w.cur, ns)
		if err != nil {
			return -1, err
		}
		if !ok {
			ei = int32(len(w.edges))
			w.edges = append(w.edges, gnrwEdge{si: w.circ.alloc(len(ns)), off: int32(len(w.remaining))})
			w.remaining = append(w.remaining, p.base...)
			w.round = append(w.round, make([]bool, len(p.base))...)
			w.history[key] = ei
		} else {
			e := &w.edges[ei]
			if len(p.base) > len(e.prof.base) {
				e.off = int32(len(w.remaining))
				w.remaining = append(w.remaining, p.base...)
				w.round = append(w.round, make([]bool, len(p.base))...)
			}
			w.circ.reset(e.si, len(ns))
		}
		e := &w.edges[ei]
		e.prof = p
		w.resetRound(e)
	}
	e := &w.edges[ei]
	m := int32(len(e.prof.base))
	remaining := w.remaining[e.off : e.off+m]
	round := w.round[e.off : e.off+m]

	// Candidate strata: active (non-exhausted) strata not yet chosen in
	// the current round; reset the round when none remain. b(u,v) resets
	// the moment a circulation completes, so some member always remains.
	totalCand := int32(0)
	for g, cnt := range remaining {
		if !round[g] {
			totalCand += cnt
		}
	}
	if totalCand == 0 {
		clear(round)
		e.inRound = 0
		for _, cnt := range remaining {
			totalCand += cnt
		}
	}

	// Choose a stratum with probability proportional to its remaining
	// member count, then a uniform remaining member within it. Drawing a
	// single index in [0,totalCand) and scanning candidate positions in
	// neighbor-list order implements both choices at once: the stratum's
	// slot mass equals its remaining count. The scan visits the clear
	// bits of b(u,v) in ascending position order — the positions the
	// historical full scan visited after its used-set skips — so the
	// draw→position mapping is unchanged. With an empty round every
	// clear position is a candidate, and the drawn index selects one
	// with a popcount per word: the common case right after every round
	// reset.
	idx := w.rng.Intn(int(totalCand))
	pos := -1
	if e.inRound == 0 {
		pos = w.circ.nthFree(e.si, idx)
	} else {
		gids := e.prof.gids
	scan:
		for i, word := range w.circ.words(e.si) {
			for free := ^word; free != 0; free &= free - 1 {
				p := i<<6 | bits.TrailingZeros64(free)
				if round[gids[p]] {
					continue // stratum already chosen this round
				}
				if idx == 0 {
					pos = p
					break scan
				}
				idx--
			}
		}
	}

	gid := e.prof.gids[pos]
	remaining[gid]--
	if !round[gid] {
		round[gid] = true
		e.inRound++
	}
	if w.circ.mark(e.si, pos) {
		// Full circulation of N(v): b(u,v) reset, so reset the round.
		w.resetRound(e)
	}
	return ns[pos], nil
}

// resetRound starts edge e's strata afresh: every member of N(v)
// remains and R(u,v) is empty.
func (w *GNRW) resetRound(e *gnrwEdge) {
	m := int32(len(e.prof.base))
	copy(w.remaining[e.off:e.off+m], e.prof.base)
	clear(w.round[e.off : e.off+m])
	e.inRound = 0
}

// GNRWFactory returns a Factory for GNRW with the given grouping
// strategy.
func GNRWFactory(grouper Grouper) Factory {
	return Factory{
		Name: "GNRW(" + grouper.Name() + ")",
		New: func(c access.Client, s graph.Node, r *rand.Rand) Walker {
			return NewGNRW(c, grouper, s, r)
		},
	}
}
