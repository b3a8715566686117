package core

import (
	"fmt"
	"math/rand"

	"histwalk/internal/access"
	"histwalk/internal/graph"
)

// Frontier implements m-dimensional Frontier Sampling (Ribeiro &
// Towsley, SIGCOMM 2010 — the paper's reference [17]): it maintains m
// coupled walkers; at each step one walker is chosen with probability
// proportional to its current node's degree and advanced by a plain SRW
// transition. The sequence of visited nodes is asymptotically
// degree-proportional (the coupled chain's stationary distribution over
// node m-tuples weights each tuple by the sum of its degrees), so the
// standard DegreeProportional estimator applies. Frontier sampling's
// advantage is start-bias mitigation: m independent starting points
// cover disconnected or bottlenecked regions a single walk would miss.
//
// It is included as an additional baseline from the paper's related
// work; note it is *not* history-aware — combining it with CNRW-style
// circulation is possible (each walker keeps its own edge memory) and
// exposed via NewFrontierCNRW.
type Frontier struct {
	client access.Client
	rng    *rand.Rand
	// positions of the m walkers
	walkers []graph.Node
	// degrees of the walkers' current nodes (cached from the last
	// neighbor query of each walker), mirrored into a cumulative table
	// so the degree-proportional walker pick is O(log m) instead of a
	// linear scan. CumTable.Find maps each draw to the same walker the
	// historical scan selected, so trajectories are unchanged.
	degrees []int
	cum     *CumTable
	cur     graph.Node
	steps   int
	// optional per-walker circulation state (CNRW hybrid)
	circulate bool
	history   map[edgeKey]int32
	circ      circTable
	prev      []graph.Node
	nbuf      []graph.Node // reused neighbor scratch (hot path, no allocs)
}

// NewFrontier returns an m-walker frontier sampler whose walkers all
// begin at the given start nodes (len(starts) = m >= 1).
func NewFrontier(c access.Client, starts []graph.Node, rng *rand.Rand) (*Frontier, error) {
	return newFrontier(c, starts, rng, false)
}

// NewFrontierCNRW returns a frontier sampler whose per-walker
// transitions use CNRW's without-replacement rule (each walker keeps
// its own incoming edge, all walkers share one per-edge memory since
// they crawl through one cache).
func NewFrontierCNRW(c access.Client, starts []graph.Node, rng *rand.Rand) (*Frontier, error) {
	return newFrontier(c, starts, rng, true)
}

func newFrontier(c access.Client, starts []graph.Node, rng *rand.Rand, circulate bool) (*Frontier, error) {
	if len(starts) == 0 {
		return nil, fmt.Errorf("core: frontier sampler needs >= 1 start node")
	}
	f := &Frontier{
		client:    c,
		rng:       rng,
		walkers:   append([]graph.Node(nil), starts...),
		degrees:   make([]int, len(starts)),
		cur:       starts[0],
		circulate: circulate,
	}
	if circulate {
		f.history = make(map[edgeKey]int32)
		f.prev = make([]graph.Node, len(starts))
		for i := range f.prev {
			f.prev[i] = -1
		}
	}
	// Prime the degree cache: each start incurs its initial query, as a
	// real multi-crawler bootstrap would.
	for i, s := range starts {
		d, err := c.Degree(s)
		if err != nil {
			return nil, err
		}
		f.degrees[i] = d
	}
	cum, err := NewCumTable(f.degrees)
	if err != nil {
		return nil, err
	}
	f.cum = cum
	return f, nil
}

// Name implements Walker.
func (f *Frontier) Name() string {
	if f.circulate {
		return fmt.Sprintf("Frontier-CNRW(m=%d)", len(f.walkers))
	}
	return fmt.Sprintf("Frontier(m=%d)", len(f.walkers))
}

// Current implements Walker: the node most recently visited by any
// walker.
func (f *Frontier) Current() graph.Node { return f.cur }

// Steps implements Walker.
func (f *Frontier) Steps() int { return f.steps }

// Dimension returns m, the number of coupled walkers.
func (f *Frontier) Dimension() int { return len(f.walkers) }

// Positions returns a copy of the walkers' current nodes.
func (f *Frontier) Positions() []graph.Node {
	return append([]graph.Node(nil), f.walkers...)
}

// Step implements Walker: select a walker with probability proportional
// to its current degree, advance it one transition, and return the node
// it arrives at.
func (f *Frontier) Step() (graph.Node, error) {
	total := f.cum.Total()
	if total == 0 {
		return f.cur, errDeadEnd(f.cur)
	}
	// Find maps the draw to the same walker the historical linear scan
	// over f.degrees selected (the pick-th unit of degree mass in walker
	// order), in O(log m).
	pick := f.rng.Intn(int(total))
	idx := f.cum.Find(int64(pick))
	v := f.walkers[idx]
	ns, err := f.client.NeighborsAppend(f.nbuf[:0], v)
	if err != nil {
		return f.cur, err
	}
	f.nbuf = ns
	if len(ns) == 0 {
		return f.cur, errDeadEnd(v)
	}
	var next graph.Node
	if f.circulate && f.prev[idx] >= 0 {
		k := packEdge(f.prev[idx], v)
		si, ok := f.history[k]
		if !ok {
			si = f.circ.alloc(len(ns))
			f.history[k] = si
		}
		next = f.circ.pick(f.rng, si, ns)
	} else {
		next = uniformPick(f.rng, ns)
	}
	nd, err := f.client.Degree(next)
	if err != nil {
		return f.cur, err
	}
	if f.circulate {
		f.prev[idx] = v
	}
	f.walkers[idx] = next
	f.degrees[idx] = nd
	f.cum.Set(idx, nd)
	f.cur = next
	f.steps++
	return next, nil
}

// Degraded wraps the fallback walker a Factory substitutes when its
// intended construction fails; Name() exposes both the fallback and
// what it degraded from, so experiment rows are never silently labeled
// with an algorithm that did not actually run.
type Degraded struct {
	Walker
	from string
}

// Name implements Walker, reporting the fallback and the original.
func (d *Degraded) Name() string {
	return fmt.Sprintf("%s[degraded:%s]", d.Walker.Name(), d.from)
}

// Unwrap returns the fallback walker actually running.
func (d *Degraded) Unwrap() Walker { return d.Walker }

// FrontierFactory returns a Factory running m coupled walkers; the m
// start nodes are drawn by shifting the trial's start node through the
// RNG (the first walker uses the provided start, preserving the
// shared-start trial protocol).
//
// Frontier construction issues queries (each start's initial degree
// fetch), so it can fail on a constrained client — e.g. an exhausted
// Budgeted wrapper. The Factory signature is total, so construction
// failures degrade to a plain SRW; the returned walker's Name() then
// reports the degradation instead of claiming to be the frontier
// sampler.
func FrontierFactory(m int) Factory {
	name := fmt.Sprintf("Frontier(m=%d)", m1(m))
	return Factory{
		Name: name,
		New: func(c access.Client, s graph.Node, r *rand.Rand) Walker {
			starts := frontierStarts(c, s, m1(m), r)
			f, err := NewFrontier(c, starts, r)
			if err != nil {
				return &Degraded{Walker: NewSRW(c, s, r), from: name}
			}
			return f
		},
	}
}

// FrontierCNRWFactory is FrontierFactory with per-walker CNRW
// circulation; construction failures degrade to a plain CNRW, reported
// through the walker's Name() like FrontierFactory's.
func FrontierCNRWFactory(m int) Factory {
	name := fmt.Sprintf("Frontier-CNRW(m=%d)", m1(m))
	return Factory{
		Name: name,
		New: func(c access.Client, s graph.Node, r *rand.Rand) Walker {
			starts := frontierStarts(c, s, m1(m), r)
			f, err := NewFrontierCNRW(c, starts, r)
			if err != nil {
				return &Degraded{Walker: NewCNRW(c, s, r), from: name}
			}
			return f
		},
	}
}

// m1 clamps a frontier dimension to >= 1.
func m1(m int) int {
	if m < 1 {
		return 1
	}
	return m
}

// frontierStarts derives m start nodes: the trial's shared start plus
// m−1 short SRW offshoots from it (a realistic bootstrap: a crawler can
// only discover further start points by walking).
func frontierStarts(c access.Client, s graph.Node, m int, r *rand.Rand) []graph.Node {
	starts := make([]graph.Node, 0, m)
	starts = append(starts, s)
	cur := s
	var buf []graph.Node
	for len(starts) < m {
		ns, err := c.NeighborsAppend(buf[:0], cur)
		if err != nil || len(ns) == 0 {
			// A failed or empty response (e.g. an isolated start): fall
			// back to the shared start rather than indexing into ns.
			starts = append(starts, s)
			continue
		}
		buf = ns
		cur = ns[r.Intn(len(ns))]
		starts = append(starts, cur)
	}
	return starts
}
