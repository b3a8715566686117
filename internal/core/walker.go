// Package core implements the paper's random-walk samplers: the two
// proposed history-aware walks — CNRW (Circulated Neighbors Random Walk,
// §3) and GNRW (GroupBy Neighbors Random Walk, §4) — and the baselines
// they are evaluated against: the Simple Random Walk (SRW), the
// Metropolis–Hastings Random Walk (MHRW) and the Non-Backtracking Simple
// Random Walk (NB-SRW). Section 5's NB-CNRW extension and a node-based
// CNRW variant (the design alternative §3.2 argues against) are included
// for ablations.
//
// All walkers:
//
//   - interact with the social network only through an access.Client, so
//     query-cost accounting matches the paper's unique-query metric;
//   - share the stationary distribution π(v) = k_v/2|E| of the simple
//     random walk (except MHRW, whose target is uniform);
//   - are deterministic given a seeded *rand.Rand.
//
// # Hot path and allocation discipline
//
// Step is the system's innermost loop — the figure harness's trials,
// the session's chains and histwalkd's concurrent jobs all spend their
// time here — so every walker keeps its transient state in reused
// per-walker scratch buffers and fetches neighborhoods through the
// client's allocation-free NeighborsAppend. Steady-state Step performs
// zero allocations; the only amortized allocations left are the
// per-directed-edge history entries of the history-aware walks, paid
// once per new edge, never per step. That history is b(u,v) itself, a
// bitmap over the positions of N(v) (plus GNRW's per-stratum counts),
// which keeps it within the amortized O(K) space of §3.3/§4.2. GNRW
// reads the strata of N(v) from a per-node profile in a stratum table
// that a session's chains share (ShareStrata).
//
// The rewrite is replay-compatible with the historical map-based
// implementation: for the same seed, every walker consumes the shared
// *rand.Rand in exactly the same order and produces bit-identical
// trajectories and query costs (enforced by the reference
// implementations in reference_test.go and the trajectory fuzz target).
// Any future change to a Step path must preserve that RNG-consumption
// order or declare a new algorithm name.
package core

import (
	"errors"
	"fmt"
	"math/rand"

	"histwalk/internal/access"
	"histwalk/internal/graph"
)

// Walker is one random-walk sampler in progress. Step advances the walk
// by one transition and returns the node arrived at; the sequence of
// returned nodes (X_1, X_2, ...) is the Markov-chain sample path used by
// the estimators. Current returns the node the walk is at (X_t).
type Walker interface {
	// Name identifies the algorithm (e.g. "SRW", "CNRW").
	Name() string
	// Current returns the node the walk currently occupies.
	Current() graph.Node
	// Step performs one transition and returns the new current node.
	// MHRW counts a rejected proposal as a step that stays in place,
	// matching its standard Markov-chain formulation.
	Step() (graph.Node, error)
	// Steps returns the number of transitions performed so far.
	Steps() int
}

// Factory constructs a fresh walker for one experiment trial. Every
// algorithm in this package provides one, which is what the experiment
// harness fans out over.
type Factory struct {
	// Name of the algorithm, used in figures and tables.
	Name string
	// New returns a new walker positioned at start. New never returns
	// nil; constructors that can fail (e.g. the frontier samplers,
	// whose bootstrap issues queries) substitute a fallback wrapped in
	// *Degraded instead. Run sites that label results by Name must
	// check for *Degraded and refuse or re-label the walk — the session
	// runner (and with it RunChain, the figure harness's trial loop)
	// refuses.
	New func(c access.Client, start graph.Node, rng *rand.Rand) Walker
}

// uniformPick returns a uniformly random element of ns. ns must be
// non-empty; every call site guards with an errDeadEnd check first.
func uniformPick(rng *rand.Rand, ns []graph.Node) graph.Node {
	return ns[rng.Intn(len(ns))]
}

// ErrDeadEnd reports a walk stuck on a node with no neighbors. The
// paper assumes connected graphs with no degree-0 nodes; hitting this
// means the input violated that precondition. Walkers surface it as an
// error (match with errors.Is) — never as an index panic.
var ErrDeadEnd = errors.New("core: walk cannot proceed from a node with no neighbors")

// errDeadEnd wraps ErrDeadEnd with the stuck node.
func errDeadEnd(v graph.Node) error {
	return fmt.Errorf("%w (node %d)", ErrDeadEnd, v)
}

// edgeKey identifies the directed edge u→v in the history-aware walks'
// per-edge memory. It is a comparable struct rather than a packed
// integer: the former uint64 packing truncated each endpoint through
// uint32, which silently folds distinct edges onto one key — corrupting
// circulation history — the moment graph.Node is ever widened beyond 32
// bits. A struct key is collision-free for the full Node range
// (negative sentinel values included) by construction, whatever Node's
// width.
type edgeKey struct{ u, v graph.Node }

// packEdge builds the history key of the directed edge u→v.
func packEdge(u, v graph.Node) edgeKey { return edgeKey{u: u, v: v} }

// SRW is the Simple Random Walk (Definition 2): an order-1 Markov chain
// that moves to a neighbor chosen uniformly at random, with stationary
// distribution π(v) = k_v/2|E|.
type SRW struct {
	client access.Client
	rng    *rand.Rand
	cur    graph.Node
	steps  int
	nbuf   []graph.Node // reused neighbor scratch (hot path, no allocs)
}

// NewSRW returns a simple random walk starting at start.
func NewSRW(c access.Client, start graph.Node, rng *rand.Rand) *SRW {
	return &SRW{client: c, rng: rng, cur: start}
}

// Name implements Walker.
func (w *SRW) Name() string { return "SRW" }

// Current implements Walker.
func (w *SRW) Current() graph.Node { return w.cur }

// Steps implements Walker.
func (w *SRW) Steps() int { return w.steps }

// Step implements Walker.
func (w *SRW) Step() (graph.Node, error) {
	ns, err := w.client.NeighborsAppend(w.nbuf[:0], w.cur)
	if err != nil {
		return w.cur, err
	}
	w.nbuf = ns
	if len(ns) == 0 {
		return w.cur, errDeadEnd(w.cur)
	}
	w.cur = uniformPick(w.rng, ns)
	w.steps++
	return w.cur, nil
}

// SRWFactory returns the Factory for SRW.
func SRWFactory() Factory {
	return Factory{Name: "SRW", New: func(c access.Client, s graph.Node, r *rand.Rand) Walker {
		return NewSRW(c, s, r)
	}}
}

// MHRW is the Metropolis–Hastings Random Walk with uniform target
// distribution: it proposes a uniform neighbor w of the current node v
// and accepts with probability min(1, k_v/k_w), staying put otherwise.
// The proposal's degree is read from the free neighbor-list summary (see
// access.Client.SummaryDegree), the most favorable cost model for MHRW;
// the paper's finding that MHRW still underperforms therefore holds a
// fortiori.
type MHRW struct {
	client access.Client
	rng    *rand.Rand
	cur    graph.Node
	steps  int
	nbuf   []graph.Node
	// Rejections counts proposals that were declined (walk stayed).
	Rejections int
}

// NewMHRW returns a Metropolis–Hastings walk starting at start.
func NewMHRW(c access.Client, start graph.Node, rng *rand.Rand) *MHRW {
	return &MHRW{client: c, rng: rng, cur: start}
}

// Name implements Walker.
func (w *MHRW) Name() string { return "MHRW" }

// Current implements Walker.
func (w *MHRW) Current() graph.Node { return w.cur }

// Steps implements Walker.
func (w *MHRW) Steps() int { return w.steps }

// Step implements Walker.
func (w *MHRW) Step() (graph.Node, error) {
	ns, err := w.client.NeighborsAppend(w.nbuf[:0], w.cur)
	if err != nil {
		return w.cur, err
	}
	w.nbuf = ns
	if len(ns) == 0 {
		return w.cur, errDeadEnd(w.cur)
	}
	prop := uniformPick(w.rng, ns)
	kw, err := w.client.SummaryDegree(w.cur, prop)
	if err != nil {
		return w.cur, err
	}
	kv := len(ns)
	if kw <= kv || w.rng.Float64() < float64(kv)/float64(kw) {
		w.cur = prop
	} else {
		w.Rejections++
	}
	w.steps++
	return w.cur, nil
}

// MHRWFactory returns the Factory for MHRW.
func MHRWFactory() Factory {
	return Factory{Name: "MHRW", New: func(c access.Client, s graph.Node, r *rand.Rand) Walker {
		return NewMHRW(c, s, r)
	}}
}

// NBSRW is the Non-Backtracking Simple Random Walk of Lee, Xu and Eun
// (SIGMETRICS 2012), an order-2 chain: from the transition u→v it moves
// to a neighbor chosen uniformly from N(v)\{u}, backtracking only when
// k_v = 1. Its stationary distribution over directed edges is uniform,
// so the node marginal remains π(v) = k_v/2|E|.
type NBSRW struct {
	client access.Client
	rng    *rand.Rand
	prev   graph.Node // -1 before the first transition
	cur    graph.Node
	steps  int
	nbuf   []graph.Node
}

// NewNBSRW returns a non-backtracking walk starting at start.
func NewNBSRW(c access.Client, start graph.Node, rng *rand.Rand) *NBSRW {
	return &NBSRW{client: c, rng: rng, prev: -1, cur: start}
}

// Name implements Walker.
func (w *NBSRW) Name() string { return "NB-SRW" }

// Current implements Walker.
func (w *NBSRW) Current() graph.Node { return w.cur }

// Steps implements Walker.
func (w *NBSRW) Steps() int { return w.steps }

// Step implements Walker.
func (w *NBSRW) Step() (graph.Node, error) {
	ns, err := w.client.NeighborsAppend(w.nbuf[:0], w.cur)
	if err != nil {
		return w.cur, err
	}
	w.nbuf = ns
	if len(ns) == 0 {
		return w.cur, errDeadEnd(w.cur)
	}
	var next graph.Node
	if w.prev < 0 || len(ns) == 1 {
		next = uniformPick(w.rng, ns)
	} else {
		// uniform over N(v)\{prev}: draw an index among the k_v-1
		// non-backtracking choices and skip over prev.
		i := w.rng.Intn(len(ns) - 1)
		next = ns[i]
		if next == w.prev {
			next = ns[len(ns)-1]
		}
	}
	w.prev = w.cur
	w.cur = next
	w.steps++
	return w.cur, nil
}

// NBSRWFactory returns the Factory for NB-SRW.
func NBSRWFactory() Factory {
	return Factory{Name: "NB-SRW", New: func(c access.Client, s graph.Node, r *rand.Rand) Walker {
		return NewNBSRW(c, s, r)
	}}
}
