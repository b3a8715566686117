package core

// Batched-stepping acceptance: advancing K chains through a
// BatchStepper must leave every chain's trajectory AND per-chain query
// accounting bit-identical to stepping that chain alone — the
// interleaving-only contract (batch.go). Plus the mechanics: row-reuse
// accounting, shared-ledger identity, allocation steady state, and the
// unsupported-walker guard.

import (
	"math/rand"
	"strings"
	"testing"

	"histwalk/internal/access"
	"histwalk/internal/dataset"
	"histwalk/internal/graph"
)

// batchChainSpec derives chain i's start node and RNG seed for the
// parity runs: distinct starts spread over the graph, distinct seeded
// streams.
func batchChainSpec(g *graph.Graph, seed int64, i int) (graph.Node, int64) {
	return graph.Node((i * 7) % g.NumNodes()), seed + int64(i)*1001
}

// runSequentialChains steps K independent chains of factory f one
// after the other (the per-chain reference path) and returns each
// chain's trajectory and accounting.
func runSequentialChains(t *testing.T, f Factory, g *graph.Graph, seed int64, k, steps int) (trajs [][]graph.Node, costs, reqs []int) {
	t.Helper()
	trajs = make([][]graph.Node, k)
	costs = make([]int, k)
	reqs = make([]int, k)
	for i := 0; i < k; i++ {
		sim := access.NewSimulator(g)
		start, s := batchChainSpec(g, seed, i)
		w := f.New(sim, start, rand.New(rand.NewSource(s)))
		for n := 0; n < steps; n++ {
			v, err := w.Step()
			if err != nil {
				t.Fatalf("sequential chain %d step %d: %v", i, n, err)
			}
			trajs[i] = append(trajs[i], v)
		}
		costs[i] = sim.QueryCost()
		reqs[i] = sim.TotalRequests()
	}
	return trajs, costs, reqs
}

// runBatchedChains steps the same K chains in lockstep rounds through
// a BatchStepper.
func runBatchedChains(t *testing.T, f Factory, g *graph.Graph, seed int64, k, steps int, share bool) (trajs [][]graph.Node, costs, reqs []int) {
	t.Helper()
	chains := make([]BatchChain, k)
	sims := make([]*access.Simulator, k)
	for i := 0; i < k; i++ {
		sims[i] = access.NewSimulator(g)
		start, s := batchChainSpec(g, seed, i)
		chains[i] = BatchChain{
			Walker: f.New(sims[i], start, rand.New(rand.NewSource(s))),
			Client: sims[i],
		}
	}
	b, err := NewBatchStepper(chains, BatchOptions{ShareRows: share})
	if err != nil {
		t.Fatal(err)
	}
	trajs = make([][]graph.Node, k)
	for round := 0; round < steps; round++ {
		if b.BeginRound() == 0 {
			break
		}
		for {
			c, v, ok, err := b.StepNext()
			if !ok {
				break
			}
			if err != nil {
				t.Fatalf("batched chain %d round %d: %v", c, round, err)
			}
			trajs[c] = append(trajs[c], v)
		}
	}
	costs = make([]int, k)
	reqs = make([]int, k)
	for i := 0; i < k; i++ {
		costs[i] = sims[i].QueryCost()
		reqs[i] = sims[i].TotalRequests()
	}
	return trajs, costs, reqs
}

func assertChainsEqual(t *testing.T, label string, seqT, batT [][]graph.Node, seqC, batC, seqR, batR []int) {
	t.Helper()
	for i := range seqT {
		if len(seqT[i]) != len(batT[i]) {
			t.Fatalf("%s: chain %d walked %d steps batched vs %d sequential", label, i, len(batT[i]), len(seqT[i]))
		}
		for n := range seqT[i] {
			if seqT[i][n] != batT[i][n] {
				t.Fatalf("%s: chain %d diverged at step %d: batched %d vs sequential %d",
					label, i, n, batT[i][n], seqT[i][n])
			}
		}
		if seqC[i] != batC[i] {
			t.Fatalf("%s: chain %d query cost %d batched vs %d sequential", label, i, batC[i], seqC[i])
		}
		if seqR[i] != batR[i] {
			t.Fatalf("%s: chain %d request total %d batched vs %d sequential", label, i, batR[i], seqR[i])
		}
	}
}

// TestBatchedBitIdentity: all 9 registry walkers × shared-row modes —
// K lockstep chains must be bit-identical (trajectories, per-chain
// unique-query costs, per-chain request totals) to K sequential runs.
func TestBatchedBitIdentity(t *testing.T) {
	graphs := []*graph.Graph{
		attachReviews(t, graph.ClusteredCliques([]int{4, 5, 6})),
		attachReviews(t, dataset.GooglePlusN(300, 7)),
	}
	const k, steps = 6, 2500
	for _, g := range graphs {
		for _, pw := range parityWalkers() {
			for _, share := range []bool{false, true} {
				seqT, seqC, seqR := runSequentialChains(t, pw.factory, g, 77, k, steps)
				batT, batC, batR := runBatchedChains(t, pw.factory, g, 77, k, steps, share)
				label := pw.name + "/" + g.Name()
				if share {
					label += "/share"
				}
				assertChainsEqual(t, label, seqT, batT, seqC, batC, seqR, batR)
			}
		}
	}
}

// TestBatchedMixedWalkers: one batch mixing every registry walker
// (chain i runs walker i) — heterogeneous batches hold the same
// contract, including GNRW chains with unequal groupers keeping
// private caches.
func TestBatchedMixedWalkers(t *testing.T) {
	g := attachReviews(t, dataset.GooglePlusN(300, 7))
	walkers := parityWalkers()
	const steps = 2000
	// Sequential reference: each walker alone.
	seqT := make([][]graph.Node, len(walkers))
	seqC := make([]int, len(walkers))
	seqR := make([]int, len(walkers))
	for i, pw := range walkers {
		tr, c, r := runSequentialChains(t, pw.factory, g, int64(500+i*1001), 1, steps)
		seqT[i], seqC[i], seqR[i] = tr[0], c[0], r[0]
	}
	// Batched: all nine in one stepper.
	chains := make([]BatchChain, len(walkers))
	sims := make([]*access.Simulator, len(walkers))
	for i, pw := range walkers {
		sims[i] = access.NewSimulator(g)
		start, s := batchChainSpec(g, int64(500+i*1001), 0)
		chains[i] = BatchChain{Walker: pw.factory.New(sims[i], start, rand.New(rand.NewSource(s))), Client: sims[i]}
	}
	b, err := NewBatchStepper(chains, BatchOptions{ShareRows: true})
	if err != nil {
		t.Fatal(err)
	}
	batT := make([][]graph.Node, len(walkers))
	for round := 0; round < steps; round++ {
		b.BeginRound()
		for {
			c, v, ok, err := b.StepNext()
			if !ok {
				break
			}
			if err != nil {
				t.Fatalf("chain %d (%s): %v", c, chains[c].Walker.Name(), err)
			}
			batT[c] = append(batT[c], v)
		}
	}
	batC := make([]int, len(walkers))
	batR := make([]int, len(walkers))
	for i := range sims {
		batC[i] = sims[i].QueryCost()
		batR[i] = sims[i].TotalRequests()
	}
	assertChainsEqual(t, "mixed", seqT, batT, seqC, batC, seqR, batR)
}

// TestBatchedSharedLedgerIdentity: the shared-cache ledger a run derives
// from its chains' own caches (access.UniqueAcross) is the same under
// batched stepping as sequentially — the Touch substitution for rows a
// sibling holds marks the same nodes queried — and each chain's local
// accounting still matches its sequential run.
func TestBatchedSharedLedgerIdentity(t *testing.T) {
	g := attachReviews(t, dataset.GooglePlusN(300, 7))
	f := CNRWFactory()
	const k, steps = 6, 2500
	seqT := make([][]graph.Node, k)
	seqC := make([]int, k)
	seqR := make([]int, k)
	seqSims := make([]*access.Simulator, k)
	for i := range seqSims {
		seqSims[i] = access.NewSimulator(g)
		start, s := batchChainSpec(g, 31, i)
		w := f.New(seqSims[i], start, rand.New(rand.NewSource(s)))
		for j := 0; j < steps; j++ {
			v, err := w.Step()
			if err != nil {
				t.Fatalf("sequential chain %d step %d: %v", i, j, err)
			}
			seqT[i] = append(seqT[i], v)
		}
		seqC[i] = seqSims[i].QueryCost()
		seqR[i] = seqSims[i].TotalRequests()
	}

	chains := make([]BatchChain, k)
	sims := make([]*access.Simulator, k)
	for i := 0; i < k; i++ {
		sims[i] = access.NewSimulator(g)
		start, s := batchChainSpec(g, 31, i)
		chains[i] = BatchChain{Walker: f.New(sims[i], start, rand.New(rand.NewSource(s))), Client: sims[i]}
	}
	b, err := NewBatchStepper(chains, BatchOptions{ShareRows: true})
	if err != nil {
		t.Fatal(err)
	}
	batT := make([][]graph.Node, k)
	for round := 0; round < steps; round++ {
		b.BeginRound()
		for {
			c, v, ok, err := b.StepNext()
			if !ok {
				break
			}
			if err != nil {
				t.Fatalf("chain %d: %v", c, err)
			}
			batT[c] = append(batT[c], v)
		}
	}
	sumLocal := 0
	batC := make([]int, k)
	batR := make([]int, k)
	for i, s := range sims {
		batC[i] = s.QueryCost()
		batR[i] = s.TotalRequests()
		sumLocal += s.QueryCost()
	}
	assertChainsEqual(t, "shared-ledger", seqT, batT, seqC, batC, seqR, batR)
	ledgers := func(ss []*access.Simulator) []*access.Ledger {
		ls := make([]*access.Ledger, len(ss))
		for i, s := range ss {
			ls[i] = &s.Ledger
		}
		return ls
	}
	global := access.UniqueAcross(ledgers(sims))
	if want := access.UniqueAcross(ledgers(seqSims)); global != want {
		t.Fatalf("batched global cost %d, sequential %d", global, want)
	}
	if global >= sumLocal {
		t.Fatalf("global cost %d not below the chains' summed unique cost %d: no cross-chain hits", global, sumLocal)
	}
}

// TestBatchedRowReuseAccounting: chains parked on one node with
// ShareRows must charge every chain the same cost as without sharing —
// the Touch substitution is accounting-only.
func TestBatchedRowReuseAccounting(t *testing.T) {
	g := attachReviews(t, graph.Complete(8))
	f := SRWFactory()
	const k, steps = 5, 400
	mk := func(share bool) ([]int, []int) {
		chains := make([]BatchChain, k)
		sims := make([]*access.Simulator, k)
		for i := 0; i < k; i++ {
			sims[i] = access.NewSimulator(g)
			// All chains share seed AND start: maximal same-node overlap.
			chains[i] = BatchChain{Walker: f.New(sims[i], 0, rand.New(rand.NewSource(9))), Client: sims[i]}
		}
		b, err := NewBatchStepper(chains, BatchOptions{ShareRows: share})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < steps; round++ {
			b.BeginRound()
			for {
				_, _, ok, err := b.StepNext()
				if !ok {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		costs := make([]int, k)
		reqs := make([]int, k)
		for i := range sims {
			costs[i] = sims[i].QueryCost()
			reqs[i] = sims[i].TotalRequests()
		}
		return costs, reqs
	}
	cShare, rShare := mk(true)
	cNo, rNo := mk(false)
	for i := 0; i < k; i++ {
		if cShare[i] != cNo[i] || rShare[i] != rNo[i] {
			t.Fatalf("chain %d: shared-row accounting (cost %d, reqs %d) != isolated (cost %d, reqs %d)",
				i, cShare[i], rShare[i], cNo[i], rNo[i])
		}
		if rShare[i] != steps {
			t.Fatalf("chain %d: %d requests, want one per step (%d)", i, rShare[i], steps)
		}
	}
}

// TestBatchedUnsupportedWalker: frontier samplers (and Degraded
// wrappers) are rejected at construction with the walker named.
func TestBatchedUnsupportedWalker(t *testing.T) {
	g := graph.Complete(6)
	sim := access.NewSimulator(g)
	fw, err := NewFrontier(sim, []graph.Node{0, 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewBatchStepper([]BatchChain{{Walker: fw, Client: sim}}, BatchOptions{})
	if err == nil {
		t.Fatal("expected an unsupported-walker error for Frontier")
	}
	if got := err.Error(); !strings.Contains(got, "Frontier") || !strings.Contains(got, "chain 0") {
		t.Fatalf("error should name the walker and chain: %q", got)
	}
}

// TestBatchedDeadEndIsolated: a chain hitting a dead end errors alone;
// sibling chains keep stepping, and the erroring chain can be
// deactivated without disturbing the round.
func TestBatchedDeadEndIsolated(t *testing.T) {
	// A path with a pendant: node 0 - 1 - 2, plus isolated-ish structure
	// is impossible via builders here, so force a dead end with a
	// 2-node path where one chain starts at a leaf of a star.
	g := graph.Star(5) // center 0, leaves 1..5; leaves have degree 1
	sim1 := access.NewSimulator(g)
	sim2 := access.NewSimulator(g)
	// Chain 0 walks normally; chain 1's walker is NB-SRW pinned at a
	// leaf — on a star NB-SRW backtracks legally, so instead use a
	// degree-0 probe: query an unknown node to trigger a client error.
	w1 := NewSRW(sim1, 0, rand.New(rand.NewSource(1)))
	w2 := NewSRW(sim2, graph.Node(97), rand.New(rand.NewSource(2))) // unknown node
	b, err := NewBatchStepper([]BatchChain{
		{Walker: w1, Client: sim1},
		{Walker: w2, Client: sim2},
	}, BatchOptions{ShareRows: true})
	if err != nil {
		t.Fatal(err)
	}
	b.BeginRound()
	sawErr := false
	steps := 0
	for {
		c, _, ok, err := b.StepNext()
		if !ok {
			break
		}
		if err != nil {
			sawErr = true
			if c != 1 {
				t.Fatalf("error attributed to chain %d, want 1", c)
			}
			b.Deactivate(c)
			continue
		}
		steps++
	}
	if !sawErr {
		t.Fatal("expected chain 1 to error on an unknown node")
	}
	if steps != 1 {
		t.Fatalf("healthy chain stepped %d times this round, want 1", steps)
	}
	if n := b.BeginRound(); n != 1 {
		t.Fatalf("next round has %d chains, want 1 after deactivation", n)
	}
}

// TestBatchedSteadyStateAllocs: after warm-up, a full batched round
// performs zero allocations — the benchgate contract for the SoA path
// (amortized history growth aside, measured here on a warmed graph).
func TestBatchedSteadyStateAllocs(t *testing.T) {
	g := attachReviews(t, graph.Complete(12))
	f := GNRWFactory(DegreeGrouper{M: 5})
	const k = 8
	chains := make([]BatchChain, k)
	for i := 0; i < k; i++ {
		sim := access.NewSimulator(g)
		start, s := batchChainSpec(g, 13, i)
		chains[i] = BatchChain{Walker: f.New(sim, start, rand.New(rand.NewSource(s))), Client: sim}
	}
	b, err := NewBatchStepper(chains, BatchOptions{ShareRows: true})
	if err != nil {
		t.Fatal(err)
	}
	round := func() {
		b.BeginRound()
		for {
			_, _, ok, err := b.StepNext()
			if !ok {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm every edge's history (complete graph: small state space).
	for i := 0; i < 3000; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(500, round); allocs > 0 {
		t.Fatalf("steady-state batched round allocated %v times, want 0", allocs)
	}
}

// FuzzBatchedParity explores walker × K × steps × topology space for
// interleaving bugs the fixed tests miss. The seeded corpus runs in
// plain `go test` and CI.
func FuzzBatchedParity(f *testing.F) {
	f.Add(int64(3), uint8(3), uint8(4), uint16(600), uint8(40))
	f.Add(int64(-9), uint8(7), uint8(9), uint16(350), uint8(25))
	f.Add(int64(123), uint8(5), uint8(2), uint16(900), uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, walkerIdx, kRaw uint8, steps uint16, n uint8) {
		walkers := parityWalkers()
		pw := walkers[int(walkerIdx)%len(walkers)]
		k := 2 + int(kRaw)%8
		nodes := 6 + int(n)%60
		gRng := rand.New(rand.NewSource(seed))
		g := graph.ErdosRenyi(nodes, 0.15, gRng).LargestComponent()
		if g.NumNodes() < 3 {
			t.Skip("degenerate graph")
		}
		attachReviews(t, g)
		nSteps := 1 + int(steps)%1200
		seqT, seqC, seqR := runSequentialChains(t, pw.factory, g, seed^0xba7c, k, nSteps)
		batT, batC, batR := runBatchedChains(t, pw.factory, g, seed^0xba7c, k, nSteps, true)
		assertChainsEqual(t, pw.name, seqT, batT, seqC, batC, seqR, batR)
	})
}
