package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"histwalk/internal/access"
	"histwalk/internal/graph"
	"histwalk/internal/stats"
)

// circulationChecker externally replays Algorithm 1's bookkeeping to
// verify the walker's choices: for each directed edge, successors must
// not repeat until all |N(v)| have been chosen, then the memory resets.
type circulationChecker struct {
	t    *testing.T
	g    *graph.Graph
	seen map[edgeKey]map[graph.Node]struct{}
}

func newCirculationChecker(t *testing.T, g *graph.Graph) *circulationChecker {
	return &circulationChecker{t: t, g: g, seen: make(map[edgeKey]map[graph.Node]struct{})}
}

// observe records the transition prev→cur→next and asserts the
// without-replacement invariant on edge (prev, cur).
func (c *circulationChecker) observe(prev, cur, next graph.Node, step int) {
	key := packEdge(prev, cur)
	s := c.seen[key]
	if s == nil {
		s = make(map[graph.Node]struct{})
		c.seen[key] = s
	}
	if _, dup := s[next]; dup {
		c.t.Fatalf("step %d: successor %d repeated on edge %d→%d before circulation completed (|b|=%d, k=%d)",
			step, next, prev, cur, len(s), c.g.Degree(cur))
	}
	s[next] = struct{}{}
	if len(s) == c.g.Degree(cur) {
		c.seen[key] = nil // full circulation: reset
	}
}

// TestCNRWCirculationInvariant verifies Algorithm 1's core property on a
// variety of topologies: sampling without replacement per directed edge
// with exact reset.
func TestCNRWCirculationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	graphs := []*graph.Graph{
		graph.Complete(5),
		graph.Barbell(4),
		graph.ClusteredCliques([]int{3, 5, 7}),
		graph.Cycle(6),
		graph.ErdosRenyi(20, 0.3, rng).LargestComponent(),
	}
	for _, g := range graphs {
		wrng := rand.New(rand.NewSource(32))
		sim := access.NewSimulator(g)
		w := NewCNRW(sim, 0, wrng)
		check := newCirculationChecker(t, g)
		var prev graph.Node = -1
		cur := w.Current()
		for s := 0; s < 30000; s++ {
			next, err := w.Step()
			if err != nil {
				t.Fatal(err)
			}
			if prev >= 0 {
				check.observe(prev, cur, next, s)
			}
			prev, cur = cur, next
		}
	}
}

// TestCNRWFullCirculationCoversAllNeighbors drives a walk on a star so
// that the center edge is re-traversed constantly, and verifies each
// circulation hits every neighbor exactly once.
func TestCNRWFullCirculationCoversAllNeighbors(t *testing.T) {
	// Star: walk alternates leaf→center→leaf. The directed edge
	// (leaf, center) is traversed every time the walk returns via the
	// same leaf; the edge (x, center) circulation for a *specific* leaf
	// x spans many visits. Use a 2-leaf star (path) plus richer case K4.
	g := graph.Star(6)
	rng := rand.New(rand.NewSource(33))
	sim := access.NewSimulator(g)
	w := NewCNRW(sim, 0, rng)
	// Track successors chosen from center per incoming leaf.
	counts := make(map[graph.Node]map[graph.Node]int)
	var prev graph.Node = -1
	cur := w.Current()
	for s := 0; s < 60000; s++ {
		next, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && cur == 0 { // transition out of the center
			m := counts[prev]
			if m == nil {
				m = make(map[graph.Node]int)
				counts[prev] = m
			}
			m[next]++
		}
		prev, cur = cur, next
	}
	// Per incoming leaf, all 5 leaves must be chosen nearly equally
	// (exact ±1 within circulation; allow slack for the partial last
	// cycle).
	for in, m := range counts {
		if len(m) != 5 {
			t.Fatalf("incoming leaf %d: only %d distinct successors chosen", in, len(m))
		}
		min, max := 1<<30, 0
		for _, c := range m {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if max-min > 1 {
			t.Fatalf("incoming leaf %d: successor counts uneven: min %d max %d (circulation broken)", in, min, max)
		}
	}
}

// TestCNRWNodeCirculationInvariant: the node-keyed ablation variant
// circulates per current node regardless of incoming edge.
func TestCNRWNodeCirculationInvariant(t *testing.T) {
	g := graph.ClusteredCliques([]int{4, 6})
	rng := rand.New(rand.NewSource(34))
	sim := access.NewSimulator(g)
	w := NewCNRWNode(sim, 0, rng)
	seen := make(map[graph.Node]map[graph.Node]struct{})
	cur := w.Current()
	for s := 0; s < 30000; s++ {
		next, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		m := seen[cur]
		if m == nil {
			m = make(map[graph.Node]struct{})
			seen[cur] = m
		}
		if _, dup := m[next]; dup {
			t.Fatalf("step %d: node-keyed circulation repeated successor %d at node %d", s, next, cur)
		}
		m[next] = struct{}{}
		if len(m) == g.Degree(cur) {
			seen[cur] = nil
		}
		cur = next
	}
}

// TestNBCNRWInvariants: NB-CNRW never backtracks when avoidable and
// circulates over N(v)\{u} per directed edge.
func TestNBCNRWInvariants(t *testing.T) {
	g := graph.Complete(5)
	rng := rand.New(rand.NewSource(35))
	sim := access.NewSimulator(g)
	w := NewNBCNRW(sim, 0, rng)
	seen := make(map[edgeKey]map[graph.Node]struct{})
	var prev graph.Node = -1
	cur := w.Current()
	for s := 0; s < 30000; s++ {
		next, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 {
			if next == prev {
				t.Fatalf("step %d: NB-CNRW backtracked %d→%d→%d on K5", s, prev, cur, next)
			}
			key := packEdge(prev, cur)
			m := seen[key]
			if m == nil {
				m = make(map[graph.Node]struct{})
				seen[key] = m
			}
			if _, dup := m[next]; dup {
				t.Fatalf("step %d: NB-CNRW repeated successor %d on edge %d→%d", s, next, prev, cur)
			}
			m[next] = struct{}{}
			if len(m) == g.Degree(cur)-1 { // circulates over N(v)\{u}
				seen[key] = nil
			}
		}
		prev, cur = cur, next
	}
}

func TestNBCNRWForcedBacktrackAtDegreeOne(t *testing.T) {
	g := graph.Path(2) // single edge: both endpoints degree 1
	rng := rand.New(rand.NewSource(36))
	sim := access.NewSimulator(g)
	w := NewNBCNRW(sim, 0, rng)
	for s := 0; s < 50; s++ {
		if _, err := w.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if w.Steps() != 50 {
		t.Fatal("walk stalled on the single edge")
	}
}

// TestCNRWHistoryGrowsWithEdgesOnly: memory is bounded by the number of
// distinct directed edges traversed (§3.3's O(K) space claim).
func TestCNRWHistoryBound(t *testing.T) {
	g := graph.ClusteredCliques([]int{5, 5})
	rng := rand.New(rand.NewSource(37))
	sim := access.NewSimulator(g)
	w := NewCNRW(sim, 0, rng)
	for s := 0; s < 20000; s++ {
		if _, err := w.Step(); err != nil {
			t.Fatal(err)
		}
	}
	maxDirected := 2 * g.NumEdges()
	if w.HistorySize() > maxDirected {
		t.Fatalf("history has %d entries, more than %d directed edges", w.HistorySize(), maxDirected)
	}
	if w.HistorySize() == 0 {
		t.Fatal("history never engaged")
	}
}

// TestCirculationExactLaw enumerates every index sequence a fresh
// circulation of k ≤ 6 positions can draw (draw j takes an index in
// [0, k−j), so there are k! equally likely sequences) and checks the
// law exactly, with no sampling error: every position lies among the
// first m picks with probability m/k, for every m, and every completed
// circulation is a permutation that resets b(u,v). Uniform picks
// without replacement are exchangeable, which is why CNRW's estimates
// are unbiased at every walk length.
func TestCirculationExactLaw(t *testing.T) {
	for k := 1; k <= 6; k++ {
		inFirst := make([][]int, k+1) // inFirst[m][p]: sequences with p among the first m picks
		for m := range inFirst {
			inFirst[m] = make([]int, k)
		}
		idx := make([]int, k)
		seqs := 0
		for {
			var ct circTable
			si := ct.alloc(k)
			seen := make([]bool, k)
			for j := 0; j < k; j++ {
				pos := ct.nthFree(si, idx[j])
				if pos < 0 || pos >= k || seen[pos] {
					t.Fatalf("k=%d seq %v: pick %d returned position %d twice or out of range", k, idx, j, pos)
				}
				if fill, has := ct.state(si, pos); fill != j || has {
					t.Fatalf("k=%d seq %v: before pick %d state = (%d, %v), want (%d, false)", k, idx, j, fill, has, j)
				}
				if completed := ct.mark(si, pos); completed != (j == k-1) {
					t.Fatalf("k=%d seq %v: pick %d reported completed=%v", k, idx, j, completed)
				}
				seen[pos] = true
				for m := j + 1; m <= k; m++ {
					inFirst[m][pos]++
				}
			}
			for p := 0; p < k; p++ {
				if fill, has := ct.state(si, p); fill != 0 || has {
					t.Fatalf("k=%d seq %v: completed circulation left state (%d, %v) at %d", k, idx, fill, has, p)
				}
			}
			seqs++
			j := k - 1
			for ; j >= 0; j-- {
				if idx[j]++; idx[j] < k-j {
					break
				}
				idx[j] = 0
			}
			if j < 0 {
				break
			}
		}
		fact := 1
		for i := 2; i <= k; i++ {
			fact *= i
		}
		if seqs != fact {
			t.Fatalf("k=%d: enumerated %d sequences, want %d", k, seqs, fact)
		}
		for m := 1; m <= k; m++ {
			for p := 0; p < k; p++ {
				if inFirst[m][p]*k != m*seqs {
					t.Fatalf("k=%d: P(position %d among the first %d picks) = %d/%d, want %d/%d",
						k, p, m, inFirst[m][p], seqs, m, k)
				}
			}
		}
	}
}

// TestCirculationMultiWord checks the bitmap across word boundaries:
// every draw returns the idx-th free position of a naive scan, and
// each cycle over k positions is a permutation.
func TestCirculationMultiWord(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, k := range []int{63, 64, 65, 127, 128, 129, 200} {
		var ct circTable
		ct.alloc(3) // a neighbor segment, so si's words start past 0
		si := ct.alloc(k)
		for cyc := 0; cyc < 3; cyc++ {
			used := make([]bool, k)
			for j := 0; j < k; j++ {
				idx := rng.Intn(k - j)
				want := -1
				for p, n := 0, idx; p < k; p++ {
					if !used[p] {
						if n == 0 {
							want = p
							break
						}
						n--
					}
				}
				if got := ct.nthFree(si, idx); got != want {
					t.Fatalf("k=%d cycle %d pick %d: nthFree(%d) = %d, want %d", k, cyc, j, idx, got, want)
				}
				ct.mark(si, want)
				used[want] = true
			}
			if fill, _ := ct.state(si, 0); fill != 0 {
				t.Fatalf("k=%d: cycle did not reset (fill %d)", k, fill)
			}
		}
	}
}

// Property test: a circulation over any neighbor set visits each element
// exactly once per cycle, for arbitrary set sizes and cycle counts.
func TestCirculationCycleProperty(t *testing.T) {
	f := func(sizeRaw uint8, cycles uint8, seed int64) bool {
		size := 1 + int(sizeRaw%12)
		ns := make([]graph.Node, size)
		for i := range ns {
			ns[i] = graph.Node(i * 3)
		}
		rng := rand.New(rand.NewSource(seed))
		var ct circTable
		si := ct.alloc(len(ns))
		nCycles := 1 + int(cycles%5)
		for cyc := 0; cyc < nCycles; cyc++ {
			seen := make(map[graph.Node]bool, size)
			for i := 0; i < size; i++ {
				p := ct.pick(rng, si, ns)
				if seen[p] {
					return false // repeat within a cycle
				}
				seen[p] = true
			}
			if len(seen) != size {
				return false
			}
			if fill, _ := ct.state(si, 0); fill != 0 {
				return false // must have reset exactly at the boundary
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Theorem 2 spot check: CNRW's estimator variance on the barbell graph
// is dramatically below SRW's at equal walk length, with equal means.
func TestTheorem2VarianceReductionBarbell(t *testing.T) {
	k := 8
	g := graph.Barbell(k)
	steps := 120 * k * k
	trials := 60
	variance := func(f Factory) (mean, sd float64) {
		var w stats.Welford
		for tr := 0; tr < trials; tr++ {
			rng := rand.New(rand.NewSource(int64(500 + tr)))
			sim := access.NewSimulator(g)
			wk := f.New(sim, 0, rng)
			inG2 := 0
			for s := 0; s < steps; s++ {
				v, err := wk.Step()
				if err != nil {
					t.Fatal(err)
				}
				if int(v) >= k {
					inG2++
				}
			}
			w.Add(float64(inG2) / float64(steps))
		}
		return w.Mean(), w.StdDev()
	}
	srwMean, srwSD := variance(SRWFactory())
	cnrwMean, cnrwSD := variance(CNRWFactory())
	if srwMean < 0.3 || srwMean > 0.7 || cnrwMean < 0.3 || cnrwMean > 0.7 {
		t.Fatalf("means off: SRW %.3f CNRW %.3f (want ≈ 0.5)", srwMean, cnrwMean)
	}
	if cnrwSD >= srwSD {
		t.Fatalf("Theorem 2 violated empirically: CNRW sd %.4f >= SRW sd %.4f", cnrwSD, srwSD)
	}
	// The reduction on the barbell should be substantial, not marginal.
	if cnrwSD > 0.6*srwSD {
		t.Fatalf("CNRW sd %.4f not well below SRW sd %.4f", cnrwSD, srwSD)
	}
}

func TestCirculationStateIntrospection(t *testing.T) {
	g := graph.Complete(4)
	rng := rand.New(rand.NewSource(39))
	sim := access.NewSimulator(g)
	w := NewCNRW(sim, 0, rng)
	// Unknown edge: zero state.
	if fill, has := w.CirculationState(1, 2, 3, g.Neighbors(2)); fill != 0 || has {
		t.Fatalf("fresh edge state = %d,%v", fill, has)
	}
	var prev graph.Node = -1
	cur := w.Current()
	for s := 0; s < 200; s++ {
		next, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 {
			fill, _ := w.CirculationState(prev, cur, next, g.Neighbors(cur))
			if fill < 0 || fill >= g.Degree(cur) {
				t.Fatalf("fill %d out of range [0,%d)", fill, g.Degree(cur))
			}
		}
		prev, cur = cur, next
	}
}
