package session

// Bit-identity pinning for the pipelined access layer (the house
// invariant): prefetch only warms caches, so for any speculation
// window and any simulated latency, every chain's trajectory, RNG
// consumption, query cost and retained samples are bit-identical to
// the synchronous path — across all nine registry walkers and both
// cache policies. Only Result.Pipeline, the wire-side counters, may
// differ; it is explicitly outside the determinism boundary.

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"histwalk/internal/access"
	"histwalk/internal/core"
	"histwalk/internal/dataset"
	"histwalk/internal/graph"
	"histwalk/internal/registry"
)

// pipeGraph builds a test graph carrying every attribute the registry
// walkers and estimators consult (score for estimators, reviews_count
// for gnrw-reviews).
func pipeGraph(t testing.TB) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(83))
	g := graph.PlantedPartition([]int{30, 30, 30}, 0.3, 0.03, rng).LargestComponent()
	g.SetName("pipe90")
	score := make([]float64, g.NumNodes())
	reviews := make([]float64, g.NumNodes())
	for i := range score {
		score[i] = float64(i % 10)
		reviews[i] = float64((i*7 + 1) % 23)
	}
	if err := g.SetAttr("score", score); err != nil {
		t.Fatal(err)
	}
	if err := g.SetAttr(dataset.AttrReviews, reviews); err != nil {
		t.Fatal(err)
	}
	return g
}

// chainLocal strips Pipeline, the one scheduling-dependent field, from
// a Result, leaving every field the determinism invariant pins.
func chainLocal(r *Result) Result {
	c := *r
	c.Pipeline = nil
	return c
}

// TestPipelinedBitIdentity runs every registry walker synchronously
// and through the pipelined access layer at several windows (plus a
// simulated-latency variant), under both cache policies, and requires
// every field but Pipeline to be bit-identical.
func TestPipelinedBitIdentity(t *testing.T) {
	g := pipeGraph(t)
	variants := []struct {
		name    string
		window  int
		latency time.Duration
	}{
		{"w1", 1, 0},
		{"w8", 8, 0},
		{"w32", 32, 0},
		{"w4-lat", 4, 200 * time.Microsecond},
		{"w0-lat", 0, 200 * time.Microsecond}, // dedup/cache only, no speculation
	}
	for _, name := range registry.WalkerNames() {
		factory, err := registry.WalkerByName(name, registry.WalkerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, cache := range []CachePolicy{CacheIsolated, CacheShared} {
			mk := func(window int, latency time.Duration) Spec {
				return Spec{
					Graph:   g,
					Walker:  factory,
					Budget:  40,
					Chains:  3,
					Cache:   cache,
					Seed:    19,
					Window:  window,
					Latency: latency,
					Estimators: []EstimatorSpec{
						{Kind: AggAvgDegree},
						{Kind: AggMean, Attr: "score"},
					},
				}
			}
			sync, err := Run(context.Background(), mk(0, 0))
			if err != nil {
				t.Fatalf("%s cache %d sync: %v", name, cache, err)
			}
			want := chainLocal(sync)
			if sync.Pipeline != nil {
				t.Fatalf("%s: synchronous run reported pipeline stats", name)
			}
			for _, v := range variants {
				piped, err := Run(context.Background(), mk(v.window, v.latency))
				if err != nil {
					t.Fatalf("%s cache %d %s: %v", name, cache, v.name, err)
				}
				if piped.Pipeline == nil {
					t.Fatalf("%s %s: pipelined run reported no pipeline stats", name, v.name)
				}
				if got := chainLocal(piped); !reflect.DeepEqual(want, got) {
					t.Fatalf("%s cache %d %s: result diverged from synchronous run:\n%+v\nvs\n%+v",
						name, cache, v.name, want, got)
				}
				if v.window == 0 && piped.Pipeline.SpeculativeFetches != 0 {
					t.Fatalf("%s %s: window 0 issued %d speculative fetches",
						name, v.name, piped.Pipeline.SpeculativeFetches)
				}
			}
		}
	}
}

// TestTransportModeWindowInvariance pins the same invariant in
// Transport mode (no Graph/Store source) under both cache policies:
// every field but Pipeline is identical across windows, the shared
// ledger balances, and a single-chain transport run matches a
// Client-mode run over a plain Simulator from the same start node.
func TestTransportModeWindowInvariance(t *testing.T) {
	g := pipeGraph(t)
	const start = 7
	mk := func(window int, walker core.Factory) Spec {
		return Spec{
			Transport: access.NewSimTransport(g, 0),
			Start:     start,
			Walker:    walker,
			Budget:    35,
			Chains:    3,
			Seed:      5,
			Window:    window,
			Estimators: []EstimatorSpec{
				{Kind: AggAvgDegree},
				{Kind: AggMean, Attr: "score"},
			},
		}
	}
	for _, name := range []string{"srw", "mhrw", "cnrw", "gnrw-degree"} {
		factory, err := registry.WalkerByName(name, registry.WalkerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, cache := range []CachePolicy{CacheIsolated, CacheShared} {
			var want *Result
			for _, window := range []int{0, 1, 16} {
				spec := mk(window, factory)
				spec.Cache = cache
				res, err := Run(context.Background(), spec)
				if err != nil {
					t.Fatalf("%s cache %d w%d: %v", name, cache, window, err)
				}
				if cache == CacheShared && res.GlobalQueries+res.CrossChainHits != res.TotalQueries {
					t.Fatalf("%s w%d: shared ledger %d global + %d hits != %d total queries",
						name, window, res.GlobalQueries, res.CrossChainHits, res.TotalQueries)
				}
				got := chainLocal(res)
				if want == nil {
					w := got
					want = &w
					continue
				}
				if !reflect.DeepEqual(*want, got) {
					t.Fatalf("%s cache %d w%d: result diverged across windows:\n%+v\nvs\n%+v",
						name, cache, window, *want, got)
				}
			}
		}
		// One chain over the transport == Client mode over a Simulator.
		tres, err := Run(context.Background(), func() Spec {
			s := mk(8, factory)
			s.Chains = 1
			return s
		}())
		if err != nil {
			t.Fatalf("%s transport 1-chain: %v", name, err)
		}
		cres, err := Run(context.Background(), Spec{
			Client: access.NewSimulator(g),
			Start:  start,
			Walker: factory,
			Budget: 35,
			Seed:   5,
			Estimators: []EstimatorSpec{
				{Kind: AggAvgDegree},
				{Kind: AggMean, Attr: "score"},
			},
		})
		if err != nil {
			t.Fatalf("%s client mode: %v", name, err)
		}
		tc, cc := tres.Chains[0], cres.Chains[0]
		if tc.Steps != cc.Steps || tc.Queries != cc.Queries || tc.Samples != cc.Samples || tc.Start != cc.Start {
			t.Fatalf("%s: transport chain diverged from Client mode: %+v vs %+v", name, tc, cc)
		}
		for e := range cres.Estimates {
			if tres.Estimates[e].Point != cres.Estimates[e].Point {
				t.Fatalf("%s: estimate %d diverged: %v vs %v",
					name, e, tres.Estimates[e].Point, cres.Estimates[e].Point)
			}
		}
	}
}

// TestPipelinedValidation covers the composition rules of the new
// fields.
func TestPipelinedValidation(t *testing.T) {
	g := pipeGraph(t)
	tr := access.NewSimTransport(g, 0)
	sim := access.NewSimulator(g)
	cases := []struct {
		name string
		spec Spec
	}{
		{"transport and graph", Spec{Graph: g, Transport: tr, Walker: core.SRWFactory(), Budget: 10}},
		{"negative window", Spec{Graph: g, Walker: core.SRWFactory(), Budget: 10, Window: -1}},
		{"negative latency", Spec{Graph: g, Walker: core.SRWFactory(), Budget: 10, Latency: -time.Millisecond}},
		{"client with window", Spec{Client: sim, Walker: core.SRWFactory(), Budget: 10, Window: 4}},
		{"client with latency", Spec{Client: sim, Walker: core.SRWFactory(), Budget: 10, Latency: time.Millisecond}},
		{"transport with latency", Spec{Transport: tr, Walker: core.SRWFactory(), Budget: 10, Latency: time.Millisecond}},
		{"pipelined batched", Spec{Graph: g, Walker: core.SRWFactory(), Budget: 10, Window: 4, Stepping: SteppingBatched}},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid spec", tc.name)
		}
	}
	ok := Spec{Transport: tr, Start: 3, Walker: core.SRWFactory(), Budget: 10, Chains: 4, Window: 8}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid transport spec rejected: %v", err)
	}
}

// TestPipelinedSessionClose checks the Session lifecycle: Close drains
// the pipeline's speculative goroutines and the Result stays readable.
func TestPipelinedSessionClose(t *testing.T) {
	g := pipeGraph(t)
	spec := Spec{
		Graph:   g,
		Walker:  core.CNRWFactory(),
		Budget:  30,
		Chains:  2,
		Seed:    11,
		Window:  16,
		Latency: 100 * time.Microsecond,
	}
	sess, err := NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, ok, err := sess.Next(); err != nil {
			t.Fatal(err)
		} else if !ok {
			break
		}
	}
	sess.Close()
	res, err := sess.PartialResult()
	if err != nil {
		t.Fatal(err)
	}
	if res.Pipeline == nil || res.Pipeline.NetworkFetches == 0 {
		t.Fatalf("pipeline stats missing after Close: %+v", res.Pipeline)
	}
	sess.Close() // idempotent
}

// FuzzPipelineParity explores walker × window × chains × budget × seed
// × cache policy combinations, requiring bit-identity of every field
// but Pipeline between the synchronous and pipelined paths under the
// same policy. The seeded corpus runs in plain `go test` and under
// -race in CI; `go test -fuzz=FuzzPipelineParity` explores further.
func FuzzPipelineParity(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), uint8(20), uint8(1), uint8(0))
	f.Add(int64(9), uint8(3), uint8(32), uint8(35), uint8(4), uint8(0))
	f.Add(int64(-7), uint8(6), uint8(8), uint8(12), uint8(3), uint8(0))
	f.Add(int64(42), uint8(8), uint8(2), uint8(28), uint8(2), uint8(0))
	f.Add(int64(9), uint8(3), uint8(32), uint8(35), uint8(4), uint8(1))
	f.Add(int64(-7), uint8(6), uint8(8), uint8(12), uint8(3), uint8(1))
	f.Add(int64(42), uint8(8), uint8(2), uint8(28), uint8(2), uint8(1))
	f.Add(int64(3), uint8(2), uint8(16), uint8(39), uint8(4), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, walkerIdx, windowRaw, budgetRaw, chainsRaw, cacheRaw uint8) {
		names := registry.WalkerNames()
		name := names[int(walkerIdx)%len(names)]
		factory, err := registry.WalkerByName(name, registry.WalkerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gRng := rand.New(rand.NewSource(seed))
		g := graph.ErdosRenyi(60, 0.12, gRng).LargestComponent()
		if g.NumNodes() < 3 {
			t.Skip("degenerate graph")
		}
		vals := make([]float64, g.NumNodes())
		for v := range vals {
			vals[v] = float64((v*5 + 2) % 17)
		}
		if err := g.SetAttr(dataset.AttrReviews, vals); err != nil {
			t.Fatal(err)
		}
		window := 1 + int(windowRaw)%48
		budget := 2 + int(budgetRaw)%40
		chains := 1 + int(chainsRaw)%5
		cache := CachePolicy(cacheRaw % 2)
		mk := func(window int) Spec {
			return Spec{
				Graph:  g,
				Walker: factory,
				Budget: budget,
				Chains: chains,
				Cache:  cache,
				Seed:   seed,
				Window: window,
			}
		}
		sync, err := Run(context.Background(), mk(0))
		if err != nil {
			t.Fatalf("%s sync: %v", name, err)
		}
		piped, err := Run(context.Background(), mk(window))
		if err != nil {
			t.Fatalf("%s w%d: %v", name, window, err)
		}
		if want, got := chainLocal(sync), chainLocal(piped); !reflect.DeepEqual(want, got) {
			t.Fatalf("%s w%d cache %d: result diverged:\n%+v\nvs\n%+v", name, window, cache, want, got)
		}
	})
}
