package graph

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph: got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.AvgDegree() != 0 {
		t.Fatalf("empty graph avg degree = %v", g.AvgDegree())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("empty graph invalid: %v", err)
	}
	if !g.IsConnected() {
		t.Fatal("empty graph should be vacuously connected")
	}
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(3)
	if !b.AddEdge(0, 1) {
		t.Fatal("AddEdge(0,1) should be new")
	}
	if b.AddEdge(1, 0) {
		t.Fatal("AddEdge(1,0) should be a duplicate")
	}
	if b.AddEdge(2, 2) {
		t.Fatal("self-loop should be rejected")
	}
	if b.AddEdge(-1, 0) {
		t.Fatal("negative node should be rejected")
	}
	b.AddEdge(1, 2)
	if got := b.NumEdges(); got != 2 {
		t.Fatalf("NumEdges = %d, want 2", got)
	}
	if !b.HasEdge(0, 1) || !b.HasEdge(1, 0) {
		t.Fatal("HasEdge should be symmetric")
	}
	if b.Degree(1) != 2 {
		t.Fatalf("Degree(1) = %d, want 2", b.Degree(1))
	}
	g := b.Build()
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("built graph: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid graph: %v", err)
	}
}

func TestBuilderGrowsNodes(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(5, 2)
	if b.NumNodes() != 6 {
		t.Fatalf("NumNodes = %d, want 6", b.NumNodes())
	}
	g := b.Build()
	if g.Degree(5) != 1 || g.Degree(2) != 1 || g.Degree(0) != 0 {
		t.Fatal("degrees wrong after implicit growth")
	}
}

func TestNeighborsSortedAndHasEdge(t *testing.T) {
	g := FromEdges(5, [][2]Node{{3, 1}, {3, 4}, {3, 0}, {3, 2}, {0, 1}})
	ns := g.Neighbors(3)
	want := []Node{0, 1, 2, 4}
	if len(ns) != len(want) {
		t.Fatalf("Neighbors(3) = %v", ns)
	}
	for i := range want {
		if ns[i] != want[i] {
			t.Fatalf("Neighbors(3) = %v, want %v", ns, want)
		}
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 2) {
		t.Fatal("HasEdge answers wrong")
	}
}

func TestAttrRoundTrip(t *testing.T) {
	g := Complete(4)
	if err := g.SetAttr("x", []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := g.SetAttr("bad", []float64{1}); err == nil {
		t.Fatal("length-mismatched attribute accepted")
	}
	v, ok := g.AttrValue("x", 2)
	if !ok || v != 3 {
		t.Fatalf("AttrValue = %v,%v", v, ok)
	}
	if _, ok := g.AttrValue("missing", 0); ok {
		t.Fatal("missing attribute reported present")
	}
	names := g.AttrNames()
	if len(names) != 1 || names[0] != "x" {
		t.Fatalf("AttrNames = %v", names)
	}
	m, ok := g.MeanAttr("x")
	if !ok || m != 2.5 {
		t.Fatalf("MeanAttr = %v,%v", m, ok)
	}
}

func TestDegreeAttrAndStationary(t *testing.T) {
	g := Star(5) // center degree 4, leaves degree 1
	da := g.DegreeAttr()
	if da[0] != 4 || da[1] != 1 {
		t.Fatalf("DegreeAttr = %v", da)
	}
	pi := g.TheoreticalStationary()
	if pi[0] != 0.5 {
		t.Fatalf("pi(center) = %v, want 0.5", pi[0])
	}
	sum := 0.0
	for _, p := range pi {
		sum += p
	}
	if diff := sum - 1; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("stationary distribution sums to %v", sum)
	}
}

func TestEdgesIteration(t *testing.T) {
	g := Cycle(5)
	count := 0
	g.Edges(func(u, v Node) bool {
		if u >= v {
			t.Fatalf("edge %d-%d not ordered", u, v)
		}
		count++
		return true
	})
	if count != 5 {
		t.Fatalf("iterated %d edges, want 5", count)
	}
	// early stop
	count = 0
	g.Edges(func(u, v Node) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop iterated %d", count)
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	g := &Graph{
		offsets: []int64{0, 1, 1},
		targets: []Node{1},
	}
	if err := g.Validate(); err == nil {
		t.Fatal("asymmetric adjacency passed validation")
	}
}

// TestAdoptCSR: adoption checks only the O(1) shape, so offsets that
// are not monotone are left to Validate, which must report them before
// reading a row; Close releases adopted storage exactly once and does
// nothing for a heap graph.
func TestAdoptCSR(t *testing.T) {
	if _, err := AdoptCSR("", []int64{1, 2}, []Node{0, 0}, 0, nil); err == nil {
		t.Fatal("AdoptCSR accepted offsets[0] = 1")
	}
	if _, err := AdoptCSR("", []int64{0, 1}, []Node{0, 0}, 0, nil); err == nil {
		t.Fatal("AdoptCSR accepted offsets ending short of the targets")
	}
	released := 0
	g, err := AdoptCSR("bad", []int64{0, 5, 2}, []Node{1, 0}, 0, func() error { released++; return nil })
	if err != nil {
		t.Fatalf("AdoptCSR scanned past the O(1) shape: %v", err)
	}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "not monotone") {
		t.Fatalf("Validate over non-monotone offsets: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if released != 1 || g.NumNodes() != 0 {
		t.Fatalf("after two Closes: released %d times, %d nodes left", released, g.NumNodes())
	}
	if err := Complete(3).Close(); err != nil {
		t.Fatalf("Close on a heap graph: %v", err)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Complete(5)
	if err := g.SetAttr("id", []float64{0, 1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	sub := g.InducedSubgraph([]Node{1, 3, 4})
	if sub.NumNodes() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("subgraph: %d nodes %d edges", sub.NumNodes(), sub.NumEdges())
	}
	vals, _ := sub.Attr("id")
	if vals[0] != 1 || vals[1] != 3 || vals[2] != 4 {
		t.Fatalf("attrs not remapped: %v", vals)
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	// duplicates collapse
	sub2 := g.InducedSubgraph([]Node{1, 1, 3})
	if sub2.NumNodes() != 2 {
		t.Fatalf("duplicate nodes not collapsed: %d", sub2.NumNodes())
	}
}

// Property: every generated graph satisfies the structural invariants.
func TestGeneratorsValidateProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gens := map[string]func() *Graph{
		"complete":  func() *Graph { return Complete(2 + rng.Intn(20)) },
		"barbell":   func() *Graph { return Barbell(2 + rng.Intn(15)) },
		"clustered": func() *Graph { return ClusteredCliques([]int{2 + rng.Intn(8), 2 + rng.Intn(8), 2 + rng.Intn(8)}) },
		"er":        func() *Graph { return ErdosRenyi(5+rng.Intn(60), rng.Float64()*0.4, rng) },
		"gnm":       func() *Graph { return GNM(5+rng.Intn(60), rng.Intn(100), rng) },
		"ba":        func() *Graph { return BarabasiAlbert(10+rng.Intn(80), 1+rng.Intn(5), rng) },
		"hk":        func() *Graph { return HolmeKim(10+rng.Intn(80), 1+rng.Intn(5), rng.Float64(), rng) },
		"ws":        func() *Graph { return WattsStrogatz(10+rng.Intn(60), 2+2*rng.Intn(3), rng.Float64()*0.5, rng) },
		"sbm": func() *Graph {
			return PlantedPartition([]int{3 + rng.Intn(15), 3 + rng.Intn(15)}, 0.3+rng.Float64()*0.5, rng.Float64()*0.1, rng)
		},
		"plc": func() *Graph {
			return PowerLawCommunities(50+rng.Intn(200), 4, 40, 2.3, 0.3+rng.Float64()*0.4, 1+rng.Intn(2), rng)
		},
		"star":  func() *Graph { return Star(2 + rng.Intn(20)) },
		"cycle": func() *Graph { return Cycle(3 + rng.Intn(20)) },
		"path":  func() *Graph { return Path(2 + rng.Intn(20)) },
		"grid":  func() *Graph { return Grid(2+rng.Intn(6), 2+rng.Intn(6)) },
	}
	for name, gen := range gens {
		for i := 0; i < 8; i++ {
			g := gen()
			if err := g.Validate(); err != nil {
				t.Fatalf("%s iteration %d: %v", name, i, err)
			}
		}
	}
}

func TestCompleteGraphStructure(t *testing.T) {
	g := Complete(6)
	if g.NumEdges() != 15 {
		t.Fatalf("K6 edges = %d, want 15", g.NumEdges())
	}
	for v := 0; v < 6; v++ {
		if g.Degree(Node(v)) != 5 {
			t.Fatalf("K6 degree(%d) = %d", v, g.Degree(Node(v)))
		}
	}
	if g.MinDegree() != 5 || g.MaxDegree() != 5 {
		t.Fatal("K6 min/max degree wrong")
	}
}

func TestBarbellPaperCounts(t *testing.T) {
	// Table 1: barbell with 100 nodes has 2451 edges.
	g := Barbell(50)
	if g.NumNodes() != 100 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 2451 {
		t.Fatalf("edges = %d, want 2451", g.NumEdges())
	}
	if !g.IsConnected() {
		t.Fatal("barbell must be connected")
	}
	// bridge endpoints have degree k, the others k-1
	if g.Degree(49) != 50 || g.Degree(50) != 50 {
		t.Fatal("bridge endpoint degrees wrong")
	}
	if g.Degree(0) != 49 || g.Degree(99) != 49 {
		t.Fatal("clique-internal degrees wrong")
	}
}

func TestClusteredCliquesPaperCounts(t *testing.T) {
	// Table 1: clustering graph has 90 nodes, 1707 edges, 23780
	// triangles, avg degree 37.93.
	g := ClusteredCliques([]int{10, 30, 50})
	if g.NumNodes() != 90 || g.NumEdges() != 1707 {
		t.Fatalf("clustered: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if tr := g.Triangles(); tr != 23780 {
		t.Fatalf("triangles = %d, want 23780", tr)
	}
	if ad := g.AvgDegree(); ad < 37.9 || ad > 38.0 {
		t.Fatalf("avg degree = %v", ad)
	}
	if !g.IsConnected() {
		t.Fatal("clustered graph must be connected")
	}
}

func TestErdosRenyiEdgeCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, p := 400, 0.05
	g := ErdosRenyi(n, p, rng)
	want := float64(n*(n-1)/2) * p
	got := float64(g.NumEdges())
	if got < want*0.85 || got > want*1.15 {
		t.Fatalf("G(%d,%v) has %v edges, want ≈ %v", n, p, got, want)
	}
	if ErdosRenyi(50, 0, rng).NumEdges() != 0 {
		t.Fatal("G(n,0) must be empty")
	}
	if ErdosRenyi(10, 1, rng).NumEdges() != 45 {
		t.Fatal("G(n,1) must be complete")
	}
}

func TestGNMExactEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := GNM(30, 100, rng)
	if g.NumEdges() != 100 {
		t.Fatalf("GNM edges = %d", g.NumEdges())
	}
	// m capped at C(n,2)
	g2 := GNM(5, 100, rng)
	if g2.NumEdges() != 10 {
		t.Fatalf("GNM capped edges = %d, want 10", g2.NumEdges())
	}
}

func TestBarabasiAlbertShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, m := 2000, 3
	g := BarabasiAlbert(n, m, rng)
	if g.NumNodes() != n {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if !g.IsConnected() {
		t.Fatal("BA graph must be connected")
	}
	if g.MinDegree() < m {
		t.Fatalf("min degree = %d < m = %d", g.MinDegree(), m)
	}
	// heavy tail: max degree far above the mean
	if float64(g.MaxDegree()) < 4*g.AvgDegree() {
		t.Fatalf("BA max degree %d not heavy-tailed (avg %.1f)", g.MaxDegree(), g.AvgDegree())
	}
}

func TestHolmeKimClusteringAboveBA(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ba := BarabasiAlbert(1500, 4, rng)
	rng = rand.New(rand.NewSource(4))
	hk := HolmeKim(1500, 4, 0.9, rng)
	if hk.AvgClustering() <= ba.AvgClustering() {
		t.Fatalf("HolmeKim clustering %.3f not above BA %.3f",
			hk.AvgClustering(), ba.AvgClustering())
	}
	if !hk.IsConnected() {
		t.Fatal("HK graph must be connected")
	}
}

func TestWattsStrogatzShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := WattsStrogatz(500, 10, 0.05, rng)
	if g.NumNodes() != 500 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if ad := g.AvgDegree(); ad < 9 || ad > 10.5 {
		t.Fatalf("avg degree = %v, want ≈ 10", ad)
	}
	// low-beta WS retains high clustering (ring lattice ≈ 0.67)
	if c := g.AvgClustering(); c < 0.4 {
		t.Fatalf("clustering = %v, want > 0.4", c)
	}
}

func TestPlantedPartitionCommunities(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := PlantedPartition([]int{40, 60}, 0.5, 0.01, rng)
	if g.NumNodes() != 100 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	comm, ok := g.Attr("community")
	if !ok {
		t.Fatal("community attribute missing")
	}
	if comm[0] != 0 || comm[99] != 1 {
		t.Fatalf("community labels wrong: %v %v", comm[0], comm[99])
	}
	if !g.IsConnected() {
		t.Fatal("bridged SBM must be connected")
	}
	// intra-community density must far exceed inter-community density.
	intra, inter := 0, 0
	g.Edges(func(u, v Node) bool {
		if comm[u] == comm[v] {
			intra++
		} else {
			inter++
		}
		return true
	})
	if intra < 10*inter {
		t.Fatalf("intra=%d inter=%d: community structure too weak", intra, inter)
	}
}

func TestPowerLawCommunitiesShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := PowerLawCommunities(3000, 10, 300, 2.3, 0.5, 1, rng)
	if g.NumNodes() != 3000 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if _, ok := g.Attr("community"); !ok {
		t.Fatal("community attribute missing")
	}
	if c := g.AvgClustering(); c < 0.2 {
		t.Fatalf("clustering = %v, want >= 0.2", c)
	}
	if float64(g.MaxDegree()) < 3*g.AvgDegree() {
		t.Fatalf("degrees not heavy-tailed: max %d avg %.1f", g.MaxDegree(), g.AvgDegree())
	}
}

func TestGridAndPathAndCycleAndStar(t *testing.T) {
	g := Grid(3, 4)
	if g.NumNodes() != 12 || g.NumEdges() != 3*3+4*2 {
		t.Fatalf("grid: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if Path(6).NumEdges() != 5 {
		t.Fatal("path edges wrong")
	}
	if Cycle(6).NumEdges() != 6 {
		t.Fatal("cycle edges wrong")
	}
	s := Star(7)
	if s.Degree(0) != 6 || s.NumEdges() != 6 {
		t.Fatal("star shape wrong")
	}
}

// quick-check property: FromEdges always yields symmetric, sorted,
// loop-free adjacency regardless of input edge list.
func TestFromEdgesProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		edges := make([][2]Node, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, [2]Node{Node(raw[i] % 200), Node(raw[i+1] % 200)})
		}
		g := FromEdges(0, edges)
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// quick-check property: unrankPair is the inverse of lexicographic pair
// ranking.
func TestUnrankPairProperty(t *testing.T) {
	f := func(nRaw uint8, idxRaw uint16) bool {
		n := 2 + int(nRaw%50)
		total := int64(n) * int64(n-1) / 2
		idx := int64(idxRaw) % total
		u, v := unrankPair(idx, n)
		if u < 0 || v <= u || v >= n {
			return false
		}
		// recompute rank
		var rank int64
		for a := 0; a < u; a++ {
			rank += int64(n - 1 - a)
		}
		rank += int64(v - u - 1)
		return rank == idx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
