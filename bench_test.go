package histwalk_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§6), each regenerating the experiment at bench scale and
// reporting its headline numbers as custom metrics, plus the ablation
// benches for the design choices DESIGN.md calls out and per-step
// micro-benchmarks of every walker.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// The reported metrics use the convention <series>_<measure>; lower is
// better for every error/divergence metric.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"histwalk"
	"histwalk/internal/stats"
)

// benchConfig is the shared bench-scale configuration.
func benchConfig() histwalk.PaperConfig {
	cfg := histwalk.QuickConfig()
	return cfg
}

// BenchmarkTable1DatasetStats regenerates Table 1 (dataset summary
// statistics) over the six datasets.
func BenchmarkTable1DatasetStats(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t := histwalk.Table1(cfg)
		if len(t.Rows) != 6 {
			b.Fatalf("table1 rows = %d", len(t.Rows))
		}
	}
}

// BenchmarkFigure6GooglePlusRelerr regenerates Figure 6: average-degree
// estimation error vs query cost on the Google Plus stand-in for MHRW,
// SRW, NB-SRW, CNRW and GNRW. Reported metrics are the relative errors
// at the largest budget (1000 unique queries).
func BenchmarkFigure6GooglePlusRelerr(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		fig, err := histwalk.Figure6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportFinals(b, fig, "relerr", "MHRW", "SRW", "NB-SRW", "CNRW", "GNRW(By-Degree)")
	}
}

// BenchmarkFigure7FacebookDistances regenerates Figures 7a–7c: KL
// divergence, ℓ2 distance and estimation error vs query cost on the
// Facebook stand-in. Reported metrics are the values at the largest
// budget (140 transitions).
func BenchmarkFigure7FacebookDistances(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := histwalk.Figure7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportFinals(b, res.KL, "kl", "SRW", "CNRW", "GNRW(By-Degree)")
		reportFinals(b, res.Err, "relerr", "SRW", "CNRW")
	}
}

// BenchmarkFigure7dYoutubeEstimation regenerates Figure 7d: estimation
// error vs query cost on the YouTube stand-in for SRW, CNRW and GNRW.
func BenchmarkFigure7dYoutubeEstimation(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		fig, err := histwalk.Figure7d(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportFinals(b, fig, "relerr", "SRW", "CNRW", "GNRW(By-Degree)")
	}
}

// BenchmarkFigure8StationaryDistribution regenerates Figure 8: the
// aggregated visit distributions of SRW, CNRW and GNRW against the
// theoretical π. Reported metrics are each algorithm's ℓ2 deviation
// from the theoretical distribution — Figure 8's claim is that all
// three coincide with it.
func BenchmarkFigure8StationaryDistribution(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		for _, which := range []int{1, 2} {
			fig, err := histwalk.Figure8(cfg, which)
			if err != nil {
				b.Fatal(err)
			}
			for _, name := range []string{"SRW", "CNRW", "GNRW(By-Degree)"} {
				d, err := histwalk.StationaryDeviation(fig, name)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(d, sanitize("fb"+itoa(which)+"_"+name+"_l2dev"))
			}
		}
	}
}

// BenchmarkFigure9YelpGrouping regenerates Figures 9a/9b: GNRW grouping
// strategies vs SRW on the Yelp stand-in, estimating average degree and
// average reviews count. Reported metrics are the errors at the largest
// budget.
func BenchmarkFigure9YelpGrouping(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		figA, figB, err := histwalk.Figure9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportFinalsPrefixed(b, figA, "deg", "SRW", "GNRW(By-Degree)", "GNRW(By-MD5)", "GNRW(By-reviews_count)")
		reportFinalsPrefixed(b, figB, "rev", "SRW", "GNRW(By-Degree)", "GNRW(By-MD5)", "GNRW(By-reviews_count)")
	}
}

// BenchmarkFigure10ClusteredGraph regenerates Figures 10a–10c on the
// paper's clustered graph (plus the unique-cost supplementary variant).
func BenchmarkFigure10ClusteredGraph(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := histwalk.Figure10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportFinals(b, res.KL, "kl", "SRW", "CNRW")
		resU, err := histwalk.Figure10Unique(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportFinals(b, resU.Err, "uerr", "SRW", "CNRW", "GNRW(By-Degree)")
	}
}

// BenchmarkFigure11BarbellSizes regenerates Figures 11a–11c: bias
// measures across barbell sizes 20–56. Reported metrics are the KL at
// the smallest and largest sizes for SRW and CNRW (the paper's claim is
// the growth with size and CNRW ≤ SRW at small sizes).
func BenchmarkFigure11BarbellSizes(b *testing.B) {
	cfg := benchConfig()
	cfg.DistanceTrials = 300
	for i := 0; i < b.N; i++ {
		res, err := histwalk.Figure11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range []string{"SRW", "CNRW"} {
			s := res.KL.SeriesByName(name)
			if s == nil || len(s.Y) == 0 {
				b.Fatal("missing series")
			}
			b.ReportMetric(s.Y[0], sanitize(name+"_kl_n20"))
			b.ReportMetric(s.Y[len(s.Y)-1], sanitize(name+"_kl_n56"))
		}
	}
}

// BenchmarkTheorem3BarbellEscape regenerates the Theorem 3 validation:
// the escape-probability ratio against its theoretical lower bound.
func BenchmarkTheorem3BarbellEscape(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := histwalk.Theorem3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Ratio, "ratio")
		b.ReportMetric(res.Bound, "bound")
		if res.Ratio <= res.Bound {
			b.Logf("warning: measured ratio %.3f below bound %.3f at bench scale", res.Ratio, res.Bound)
		}
	}
}

// BenchmarkAblationEdgeVsNodeCirculation compares the paper's
// edge-based recurrence (§3.2) against the node-based alternative and
// plain SRW, measuring the trial-to-trial standard deviation of a
// clique-occupancy estimator on a barbell graph — the asymptotic
// variance proxy of Theorem 2.
func BenchmarkAblationEdgeVsNodeCirculation(b *testing.B) {
	const k = 10
	g := histwalk.Barbell(k)
	steps := 120 * k * k
	trials := 40
	run := func(f histwalk.Factory, seedBase int64) float64 {
		var w stats.Welford
		for t := 0; t < trials; t++ {
			rng := rand.New(rand.NewSource(seedBase + int64(t)))
			sim := histwalk.NewSimulator(g)
			wk := f.New(sim, 0, rng)
			inG2 := 0
			for s := 0; s < steps; s++ {
				v, err := wk.Step()
				if err != nil {
					b.Fatal(err)
				}
				if int(v) >= k {
					inG2++
				}
			}
			w.Add(float64(inG2) / float64(steps))
		}
		return w.StdDev()
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(histwalk.SRWFactory(), 100), "SRW_sd")
		b.ReportMetric(run(histwalk.CNRWFactory(), 100), "CNRW_edge_sd")
		b.ReportMetric(run(histwalk.CNRWNodeFactory(), 100), "CNRW_node_sd")
		b.ReportMetric(run(histwalk.NBCNRWFactory(), 100), "NBCNRW_sd")
	}
}

// BenchmarkAblationNBCNRW compares NB-CNRW (§5) with NB-SRW and CNRW on
// the Google Plus stand-in estimation task.
func BenchmarkAblationNBCNRW(b *testing.B) {
	cfg := benchConfig()
	g := histwalk.GooglePlusN(cfg.GPlusNodes, cfg.Seed)
	for i := 0; i < b.N; i++ {
		fig, err := histwalk.EstimationFigure(histwalk.EstimationConfig{
			ID: "ablation-nbcnrw", Title: "NB-CNRW ablation", Graph: g, Attr: "degree",
			Factories: []histwalk.Factory{
				histwalk.NBSRWFactory(),
				histwalk.CNRWFactory(),
				histwalk.NBCNRWFactory(),
			},
			Budgets: []int{500, 1000},
			Trials:  cfg.EstimationTrials,
			Seed:    cfg.Seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		reportFinals(b, fig, "relerr", "NB-SRW", "CNRW", "NB-CNRW")
	}
}

// BenchmarkAblationGroupCount sweeps GNRW's stratum count m on the Yelp
// reviews aggregate (m=1 degenerates to CNRW).
func BenchmarkAblationGroupCount(b *testing.B) {
	cfg := benchConfig()
	g := histwalk.YelpN(cfg.YelpNodes, cfg.Seed)
	for i := 0; i < b.N; i++ {
		var factories []histwalk.Factory
		for _, m := range []int{1, 3, 5, 8} {
			f := histwalk.GNRWFactory(histwalk.AttrGrouper{Attr: histwalk.AttrReviews, M: m})
			f.Name = f.Name + "-m" + itoa(m)
			factories = append(factories, f)
		}
		fig, err := histwalk.EstimationFigure(histwalk.EstimationConfig{
			ID: "ablation-groups", Title: "GNRW group count", Graph: g, Attr: histwalk.AttrReviews,
			Factories: factories,
			Budgets:   []int{1000},
			Trials:    cfg.EstimationTrials,
			Seed:      cfg.Seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range factories {
			v, ok := fig.FinalValue(f.Name)
			if !ok {
				b.Fatal("missing series")
			}
			b.ReportMetric(v, sanitize(f.Name+"_relerr"))
		}
	}
}

// --- trial-execution engine benchmarks ---

// benchmarkFigureEstimation regenerates a paper-scale estimation figure
// (FullConfig's 600 trials per algorithm) at a fixed worker count. The
// serial/parallel pair quantifies the engine's speedup; both produce
// bit-identical figures, which the parallel variant asserts.
func benchmarkFigureEstimation(b *testing.B, workers int, check bool) {
	cfg := benchConfig()
	g := histwalk.GooglePlusN(cfg.GPlusNodes, cfg.Seed)
	mk := func(w int) *histwalk.Figure {
		fig, err := histwalk.EstimationFigure(histwalk.EstimationConfig{
			ID: "bench-engine", Title: "engine speedup", Graph: g, Attr: "degree",
			Factories: []histwalk.Factory{histwalk.SRWFactory(), histwalk.CNRWFactory()},
			Budgets:   []int{250, 500, 1000},
			Trials:    600, // FullConfig.EstimationTrials: paper scale
			Seed:      cfg.Seed,
			Workers:   w,
		})
		if err != nil {
			b.Fatal(err)
		}
		return fig
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig := mk(workers)
		if check {
			b.StopTimer()
			serial := mk(1)
			for si := range fig.Series {
				for yi := range fig.Series[si].Y {
					if fig.Series[si].Y[yi] != serial.Series[si].Y[yi] {
						b.Fatalf("parallel figure diverged from serial at series %d point %d", si, yi)
					}
				}
			}
			b.StartTimer()
		}
	}
}

// BenchmarkFigureEstimationSerial is the Workers=1 baseline.
func BenchmarkFigureEstimationSerial(b *testing.B) {
	benchmarkFigureEstimation(b, 1, false)
}

// BenchmarkFigureEstimationParallel runs one worker per core and
// verifies the figure matches the serial baseline bit for bit. Compare
// its ns/op against BenchmarkFigureEstimationSerial for the speedup
// (near-linear on ≥ 4 cores; trials are embarrassingly parallel and
// share no mutable state).
func BenchmarkFigureEstimationParallel(b *testing.B) {
	benchmarkFigureEstimation(b, 0, true)
}

// --- access-layer benchmarks ---

// BenchmarkSharedVsIsolatedChains runs the same 16-chain CNRW crawl of
// the Google Plus stand-in under both cache policies. The shared
// variant asserts its estimates are bit-identical to the isolated run
// and its global network cost strictly lower; the reported metrics
// make the saving machine-readable (see BENCH_micro.json):
//
//	global_queries  — unique queries actually paid to the network
//	local_queries   — Σ chain-local unique queries (the budget spend)
//	xchain_hit_pct  — % of chain-local queries served by a sibling's fetch
func BenchmarkSharedVsIsolatedChains(b *testing.B) {
	g := histwalk.GooglePlusN(4000, 1)
	mk := func(cache histwalk.CachePolicy) *histwalk.Result {
		res, err := histwalk.Run(context.Background(), histwalk.Spec{
			Graph:  g,
			Walker: histwalk.CNRWFactory(),
			Budget: 500,
			Chains: 16,
			Cache:  cache,
			Seed:   1,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	b.Run("isolated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := mk(histwalk.CacheIsolated)
			b.ReportMetric(float64(res.GlobalQueries), "global_queries")
			b.ReportMetric(float64(res.TotalQueries), "local_queries")
		}
	})
	b.Run("shared", func(b *testing.B) {
		iso := mk(histwalk.CacheIsolated)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := mk(histwalk.CacheShared)
			b.StopTimer()
			for c := range res.Estimates[0].PerChain {
				if res.Estimates[0].PerChain[c] != iso.Estimates[0].PerChain[c] {
					b.Fatalf("chain %d estimate diverged between cache policies", c)
				}
			}
			if res.GlobalQueries >= iso.GlobalQueries {
				b.Fatalf("shared global cost %d not below isolated %d", res.GlobalQueries, iso.GlobalQueries)
			}
			b.StartTimer()
			b.ReportMetric(float64(res.GlobalQueries), "global_queries")
			b.ReportMetric(float64(res.TotalQueries), "local_queries")
			b.ReportMetric(100*res.CrossChainHitRate, "xchain_hit_pct")
		}
	})
}

// BenchmarkPipelinedCrawl measures latency hiding by the pipelined
// access layer: the same CNRW crawl over a simulated 10ms-round-trip
// transport at speculation windows 1/8/32 and 1/4/16 chains, with an
// equal per-chain query budget everywhere. Chain-local accounting is
// asserted bit-identical across windows (the house invariant), so any
// wall-clock difference is pure pipelining: demand stalls replaced by
// speculative warm hits. cmd/benchgate gates the single-chain
// window-1 → window-32 ratio at the minimum recorded in
// BENCH_micro.json. Run with -benchtime 1x: one crawl per
// configuration is the measurement.
//
// Reported metrics (see internal/access.PipelineStats):
//
//	network_fetches — total transport fetches (demand + speculative)
//	demand_misses   — demands that stalled a full round trip
//	warm_hit_pct    — % of fresh demands served with no stall at all
func BenchmarkPipelinedCrawl(b *testing.B) {
	g := histwalk.GooglePlusN(400, 1)
	const latency = 10 * time.Millisecond
	run := func(window, chains int) *histwalk.Result {
		res, err := histwalk.Run(context.Background(), histwalk.Spec{
			Graph:   g,
			Walker:  histwalk.CNRWFactory(),
			Budget:  200,
			Chains:  chains,
			Seed:    1,
			Window:  window,
			Latency: latency,
			Estimators: []histwalk.EstimatorSpec{
				{Kind: histwalk.AggAvgDegree},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	for _, chains := range []int{1, 4, 16} {
		var want *histwalk.Result
		for _, window := range []int{1, 8, 32} {
			b.Run(fmt.Sprintf("w=%d/chains=%d", window, chains), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res := run(window, chains)
					b.StopTimer()
					if want == nil {
						want = res
					} else {
						if res.TotalQueries != want.TotalQueries {
							b.Fatalf("query budget drifted across windows: %d vs %d",
								res.TotalQueries, want.TotalQueries)
						}
						for c := range res.Estimates[0].PerChain {
							if res.Estimates[0].PerChain[c] != want.Estimates[0].PerChain[c] {
								b.Fatalf("chain %d estimate diverged across windows", c)
							}
						}
					}
					st := res.Pipeline
					b.ReportMetric(float64(st.NetworkFetches), "network_fetches")
					b.ReportMetric(float64(st.DemandMisses), "demand_misses")
					if fresh := st.DemandMisses + st.DemandJoined + st.DemandWarm; fresh > 0 {
						b.ReportMetric(100*float64(st.DemandWarm)/float64(fresh), "warm_hit_pct")
					}
					b.StartTimer()
				}
			})
		}
	}
}

// --- per-step micro-benchmarks ---

// BenchmarkWalkStep is the hot-path suite the allocation gate watches
// (cmd/benchgate, BENCH_micro.json): one sub-benchmark per registry
// walker, each stepping a single walker over the 2000-node Google Plus
// stand-in (the reviews-grouped GNRW runs on the Yelp stand-in, which
// carries the reviews_count attribute). Run with -benchmem: the gate is
// ≤ 1 alloc per Step — at steady state the walkers allocate nothing and
// only the history-aware walks pay amortized first-traversal entries.
//
// The SRW/MHRW/NB-SRW/CNRW/GNRW(By-Degree) cases keep the graph, seed
// and start node of the retired BenchmarkStep* benchmarks, so their
// ns/op compare directly against the pre-rewrite baselines recorded in
// BENCH_micro.json.
func BenchmarkWalkStep(b *testing.B) {
	gplus := histwalk.GooglePlusN(2000, 1)
	yelp := histwalk.YelpN(2000, 1)
	cases := []struct {
		name    string
		graph   *histwalk.Graph
		factory histwalk.Factory
	}{
		{"SRW", gplus, histwalk.SRWFactory()},
		{"MHRW", gplus, histwalk.MHRWFactory()},
		{"NB-SRW", gplus, histwalk.NBSRWFactory()},
		{"CNRW", gplus, histwalk.CNRWFactory()},
		{"CNRW-node", gplus, histwalk.CNRWNodeFactory()},
		{"NB-CNRW", gplus, histwalk.NBCNRWFactory()},
		{"GNRW-degree", gplus, histwalk.GNRWFactory(histwalk.DegreeGrouper{M: 5})},
		{"GNRW-md5", gplus, histwalk.GNRWFactory(histwalk.HashGrouper{M: 5})},
		{"GNRW-reviews", yelp, histwalk.GNRWFactory(histwalk.AttrGrouper{Attr: histwalk.AttrReviews, M: 5})},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			sim := histwalk.NewSimulator(tc.graph)
			w := tc.factory.New(sim, 0, rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchedChains measures aggregate multi-chain stepping
// throughput: K walkers of one algorithm crawling the 16000-node
// Google Plus stand-in, advanced either sequentially round-robin (the
// per-chain reference path: each walker's own Step, which copies its
// neighbor row) or in lockstep rounds on a BatchStepper (sorted CSR
// gathers, zero-copy rows, same-node fetch sharing). The walkers are
// built outside any Session, so each GNRW chain keeps a private
// stratum table in both variants (BenchmarkSessionStepping compares
// the modes with the table shared). ns/op is the cost of one aggregate
// step — one chain advancing one transition — so the seq/batched ratio
// at equal K is the batch engine's speedup; both variants produce
// bit-identical per-chain trajectories (pinned by
// TestBatchedBitIdentity).
// cmd/benchgate reports the aggregate steps/sec and the ratio when
// these results are on its stdin.
//
// The graph is sized so the run stays in the crawl regime — most steps
// traverse an edge for the first time — which is the deployment shape
// the paper targets (query budgets far below graph size), and its
// average degree (~73) is the closest of the stand-in sizes to the
// real Google Plus dataset's (~82, Table 1). A steady-state-dominated
// configuration (small graph, huge b.N) mostly measures per-walker
// history bookkeeping, which batching by design does not change.
func BenchmarkBatchedChains(b *testing.B) {
	g := histwalk.GooglePlusN(16000, 1)
	cases := []struct {
		name    string
		factory histwalk.Factory
	}{
		{"CNRW", histwalk.CNRWFactory()},
		{"GNRW-md5", histwalk.GNRWFactory(histwalk.HashGrouper{M: 5})},
		{"GNRW-degree", histwalk.GNRWFactory(histwalk.DegreeGrouper{M: 5})},
	}
	for _, tc := range cases {
		for _, k := range []int{4, 16, 64} {
			mkChains := func() []histwalk.BatchChain {
				chains := make([]histwalk.BatchChain, k)
				for i := range chains {
					rng := rand.New(rand.NewSource(int64(1 + i)))
					sim := histwalk.NewSimulator(g)
					start := histwalk.Node((i * 31) % g.NumNodes())
					chains[i] = histwalk.BatchChain{Walker: tc.factory.New(sim, start, rng), Client: sim}
				}
				return chains
			}
			b.Run(tc.name+"/K="+itoa(k)+"/seq", func(b *testing.B) {
				chains := mkChains()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := chains[i%k].Walker.Step(); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(tc.name+"/K="+itoa(k)+"/batched", func(b *testing.B) {
				bs, err := histwalk.NewBatchStepper(mkChains(), histwalk.BatchOptions{ShareRows: true})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				steps := 0
				for steps < b.N {
					bs.BeginRound()
					for steps < b.N {
						_, _, ok, err := bs.StepNext()
						if err != nil {
							b.Fatal(err)
						}
						if !ok {
							break
						}
						steps++
					}
				}
			})
		}
	}
}

// BenchmarkSessionStepping is BenchmarkBatchedChains one layer up: a
// K-chain Session (budget 1000 unique queries per chain, Workers 1) on
// the 20000-node Google Plus stand-in, run to completion with per-chain
// stepping (percall) or SteppingBatched (batched). Unlike the
// sequential walkers of BenchmarkBatchedChains, both variants' GNRW
// chains share the Session's stratum table, so the percall/batched
// ratio isolates what lockstep rounds themselves buy. ns/op is one Run;
// ns/step divides it by the chains' total transitions. Both variants
// must return identical Results.
func BenchmarkSessionStepping(b *testing.B) {
	g := histwalk.GooglePlusN(20000, 1)
	cases := []struct {
		name    string
		factory histwalk.Factory
	}{
		{"CNRW", histwalk.CNRWFactory()},
		{"GNRW-md5", histwalk.GNRWFactory(histwalk.HashGrouper{M: 5})},
		{"GNRW-degree", histwalk.GNRWFactory(histwalk.DegreeGrouper{M: 5})},
	}
	for _, tc := range cases {
		for _, k := range []int{4, 16, 64} {
			spec := histwalk.Spec{Graph: g, Walker: tc.factory, Budget: 1000, Chains: k, Workers: 1, Seed: 1}
			var want *histwalk.Result
			for _, mode := range []struct {
				name     string
				stepping histwalk.SteppingMode
			}{{"percall", histwalk.SteppingPerChain}, {"batched", histwalk.SteppingBatched}} {
				spec.Stepping = mode.stepping
				b.Run(tc.name+"/K="+itoa(k)+"/"+mode.name, func(b *testing.B) {
					steps := 0
					for i := 0; i < b.N; i++ {
						res, err := histwalk.Run(context.Background(), spec)
						if err != nil {
							b.Fatal(err)
						}
						if want == nil {
							want = res
						} else if !reflect.DeepEqual(res, want) {
							b.Fatalf("%s Result differs from the first run's", mode.name)
						}
						steps += res.TotalSteps
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
				})
			}
		}
	}
}

// BenchmarkGraphBuild measures dataset construction throughput.
func BenchmarkGraphBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := histwalk.GooglePlusN(4000, int64(i))
		if g.NumNodes() == 0 {
			b.Fatal("empty graph")
		}
	}
}

// --- helpers ---

func reportFinals(b *testing.B, fig *histwalk.Figure, measure string, series ...string) {
	b.Helper()
	for _, name := range series {
		v, ok := fig.FinalValue(name)
		if !ok {
			b.Fatalf("series %q missing from %s", name, fig.ID)
		}
		b.ReportMetric(v, sanitize(name+"_"+measure))
	}
}

func reportFinalsPrefixed(b *testing.B, fig *histwalk.Figure, prefix string, series ...string) {
	b.Helper()
	for _, name := range series {
		v, ok := fig.FinalValue(name)
		if !ok {
			b.Fatalf("series %q missing from %s", name, fig.ID)
		}
		b.ReportMetric(v, sanitize(prefix+"_"+name))
	}
}

// sanitize makes a series name safe for the benchmark metric grammar
// (no spaces or parentheses).
func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case '(', ')', ' ':
			// drop
		case '-':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
