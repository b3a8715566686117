package histwalk_test

// Integration tests against the public API, exercising the library the
// way a downstream user would (the examples follow the same patterns).

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"histwalk"
)

func TestPublicAPIQuickstartFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := histwalk.PowerLawCommunities(3000, 10, 200, 2.3, 0.5, 1, rng)
	g = g.LargestComponent()
	sim := histwalk.NewSimulator(g)
	w := histwalk.NewCNRW(sim, 0, rng)
	est := histwalk.NewAvgDegree(histwalk.DegreeProportional)
	for sim.QueryCost() < 400 {
		v, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		if err := est.Add(g.Degree(v)); err != nil {
			t.Fatal(err)
		}
	}
	avg, err := est.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if histwalk.RelativeError(avg, g.AvgDegree()) > 0.5 {
		t.Fatalf("estimate %v wildly off truth %v", avg, g.AvgDegree())
	}
	if sim.QueryCost() < 400 {
		t.Fatal("budget loop exited early")
	}
}

func TestPublicAPIAllWalkersRun(t *testing.T) {
	g := histwalk.Barbell(6)
	rng := rand.New(rand.NewSource(8))
	sim := histwalk.NewSimulator(g)
	walkers := []histwalk.Walker{
		histwalk.NewSRW(sim, 0, rng),
		histwalk.NewMHRW(sim, 0, rng),
		histwalk.NewNBSRW(sim, 0, rng),
		histwalk.NewCNRW(sim, 0, rng),
		histwalk.NewCNRWNode(sim, 0, rng),
		histwalk.NewNBCNRW(sim, 0, rng),
		histwalk.NewGNRW(sim, histwalk.DegreeGrouper{M: 3}, 0, rng),
	}
	for _, w := range walkers {
		for s := 0; s < 100; s++ {
			if _, err := w.Step(); err != nil {
				t.Fatalf("%s: %v", w.Name(), err)
			}
		}
	}
}

func TestPublicAPIBudgetedClient(t *testing.T) {
	g := histwalk.Complete(10)
	sim := histwalk.NewSimulator(g)
	b := histwalk.NewBudgeted(sim, 3)
	rng := rand.New(rand.NewSource(9))
	w := histwalk.NewSRW(b, 0, rng)
	errSeen := false
	for s := 0; s < 100; s++ {
		if _, err := w.Step(); err != nil {
			errSeen = true
			break
		}
	}
	if !errSeen {
		t.Fatal("budgeted walk never hit the budget")
	}
	if sim.QueryCost() > 3 {
		t.Fatalf("budget overspent: %d", sim.QueryCost())
	}
}

func TestPublicAPIEdgeListRoundTrip(t *testing.T) {
	g := histwalk.Cycle(10)
	var buf bytes.Buffer
	if err := histwalk.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, _, err := histwalk.ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 10 || g2.NumEdges() != 10 {
		t.Fatalf("round trip: %d nodes %d edges", g2.NumNodes(), g2.NumEdges())
	}
	var abuf bytes.Buffer
	if err := histwalk.WriteAttr(&abuf, "x", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	vals, err := histwalk.ReadAttr(strings.NewReader(abuf.String()), 2)
	if err != nil || vals[1] != 2 {
		t.Fatalf("attr round trip: %v %v", vals, err)
	}
}

func TestPublicAPIDatasets(t *testing.T) {
	for _, name := range histwalk.DatasetNames() {
		if histwalk.DatasetByName(name, 1) == nil {
			t.Fatalf("dataset %q missing", name)
		}
	}
	y := histwalk.YelpN(1500, 2)
	if _, ok := y.Attr(histwalk.AttrReviews); !ok {
		t.Fatal("yelp missing reviews attribute")
	}
}

func TestPublicAPIExperimentRunners(t *testing.T) {
	cfg := histwalk.QuickConfig()
	cfg.GPlusNodes = 1200
	cfg.YelpNodes = 1200
	cfg.YoutubeNodes = 1200
	cfg.EstimationTrials = 8
	cfg.DistanceTrials = 20
	cfg.StationaryWalks = 4
	cfg.StationarySteps = 800
	cfg.EscapeSteps = 30000
	cfg.EscapeEpisodes = 5

	tb := histwalk.Table1(cfg)
	if len(tb.Rows) != 6 {
		t.Fatalf("table1 rows = %d", len(tb.Rows))
	}
	fig6, err := histwalk.Figure6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig6.Series) != 5 {
		t.Fatalf("fig6 series = %d", len(fig6.Series))
	}
	f7, err := histwalk.Figure7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f7.KL == nil || f7.L2 == nil || f7.Err == nil {
		t.Fatal("fig7 incomplete")
	}
	f8, err := histwalk.Figure8(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := histwalk.StationaryDeviation(f8, "CNRW"); err != nil {
		t.Fatal(err)
	}
	if _, err := histwalk.Figure8(cfg, 3); err == nil {
		t.Fatal("invalid Figure8 dataset accepted")
	}
	a, b, err := histwalk.Figure9(cfg)
	if err != nil || a == nil || b == nil {
		t.Fatalf("fig9: %v", err)
	}
	f10, err := histwalk.Figure10(cfg)
	if err != nil || len(f10.KL.Series) != 4 {
		t.Fatalf("fig10: %v", err)
	}
	f10u, err := histwalk.Figure10Unique(cfg)
	if err != nil || len(f10u.KL.Series) != 4 {
		t.Fatalf("fig10u: %v", err)
	}
	f7d, err := histwalk.Figure7d(cfg)
	if err != nil || len(f7d.Series) != 3 {
		t.Fatalf("fig7d: %v", err)
	}
	tb2, err := histwalk.Theorem2Table(histwalk.Theorem2Config{Steps: 30000, Seed: 1})
	if err != nil || len(tb2.Rows) != 3 {
		t.Fatalf("thm2: %v", err)
	}
	f11, err := histwalk.Figure11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := f11.KL.SeriesByName("SRW"); s == nil || len(s.X) != 10 {
		t.Fatal("fig11 size sweep incomplete")
	}
	esc, err := histwalk.Theorem3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if esc.PSRW <= 0 || esc.PCNRW <= 0 {
		t.Fatal("theorem3 probabilities missing")
	}
	var buf bytes.Buffer
	if err := histwalk.EscapeTable(esc).Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "theorem3") {
		t.Fatal("escape table render wrong")
	}
}

func TestPublicAPIRateLimiter(t *testing.T) {
	rl := histwalk.NewRateLimiter(2, 1e9)
	rl.Take()
	rl.Take()
	rl.Take()
	if rl.VirtualElapsed() == 0 {
		t.Fatal("rate limiter did not accumulate virtual time")
	}
}

// TestSharedCacheLedger pins the shared-cache ledger on
// BenchmarkSharedVsIsolatedChains' spec (the counts BENCH_micro.json
// records): 16 CNRW chains × 500 unique queries on the 4000-node Google
// Plus stand-in pay the network 8000 queries with isolated caches but
// 3003 with a shared one, for any Workers value.
func TestSharedCacheLedger(t *testing.T) {
	g := histwalk.GooglePlusN(4000, 1)
	run := func(cache histwalk.CachePolicy, workers int) *histwalk.Result {
		t.Helper()
		res, err := histwalk.Run(context.Background(), histwalk.Spec{
			Graph:   g,
			Walker:  histwalk.CNRWFactory(),
			Budget:  500,
			Chains:  16,
			Cache:   cache,
			Workers: workers,
			Seed:    1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, workers := range []int{1, 16} {
		res := run(histwalk.CacheShared, workers)
		if res.TotalQueries != 8000 || res.GlobalQueries != 3003 || res.CrossChainHits != 4997 {
			t.Fatalf("workers=%d: shared ledger %d local / %d global / %d cross-chain hits, want 8000/3003/4997",
				workers, res.TotalQueries, res.GlobalQueries, res.CrossChainHits)
		}
		if want := 4997.0 / 8000; res.CrossChainHitRate != want {
			t.Fatalf("workers=%d: CrossChainHitRate = %v, want %v", workers, res.CrossChainHitRate, want)
		}
	}
	if iso := run(histwalk.CacheIsolated, 1); iso.GlobalQueries != 8000 || iso.CrossChainHits != 0 {
		t.Fatalf("isolated ledger %d global / %d cross-chain hits, want 8000/0", iso.GlobalQueries, iso.CrossChainHits)
	}
}
