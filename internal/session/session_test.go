package session

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"histwalk/internal/access"
	"histwalk/internal/core"
	"histwalk/internal/dataset"
	"histwalk/internal/engine"
	"histwalk/internal/estimate"
	"histwalk/internal/graph"
	"histwalk/internal/registry"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	g := graph.PlantedPartition([]int{40, 40, 40}, 0.35, 0.02, rng).LargestComponent()
	g.SetName("sbm120")
	vals := make([]float64, g.NumNodes())
	for i := range vals {
		vals[i] = float64(i % 10)
	}
	if err := g.SetAttr("score", vals); err != nil {
		t.Fatal(err)
	}
	return g
}

func baseSpec(g *graph.Graph) Spec {
	return Spec{
		Graph:  g,
		Walker: core.CNRWFactory(),
		Budget: 60,
		Chains: 6,
		Seed:   7,
	}
}

func TestValidate(t *testing.T) {
	g := testGraph(t)
	sim := access.NewSimulator(g)
	cases := []struct {
		name string
		spec Spec
	}{
		{"no source", Spec{Walker: core.SRWFactory(), Budget: 10}},
		{"both sources", Spec{Graph: g, Client: sim, Walker: core.SRWFactory(), Budget: 10}},
		{"client multi-chain", Spec{Client: sim, Walker: core.SRWFactory(), Budget: 10, Chains: 2}},
		{"no walker", Spec{Graph: g, Budget: 10}},
		{"zero budget", Spec{Graph: g, Walker: core.SRWFactory()}},
		{"negative chains", Spec{Graph: g, Walker: core.SRWFactory(), Budget: 10, Chains: -1}},
		{"negative workers", Spec{Graph: g, Walker: core.SRWFactory(), Budget: 10, Workers: -2}},
		{"bad confidence", Spec{Graph: g, Walker: core.SRWFactory(), Budget: 10, Confidence: 0.5}},
		{"bad design", Spec{Graph: g, Walker: core.SRWFactory(), Budget: 10, Design: DesignChoice(9)}},
		{"bad cost model", Spec{Graph: g, Walker: core.SRWFactory(), Budget: 10, Cost: engine.CostModel(9)}},
		{"start in graph mode", Spec{Graph: g, Walker: core.SRWFactory(), Budget: 10, Start: 5}},
		{"proportion without predicate", Spec{
			Graph: g, Walker: core.SRWFactory(), Budget: 10,
			Estimators: []EstimatorSpec{{Kind: AggProportion}},
		}},
		{"unknown kind", Spec{
			Graph: g, Walker: core.SRWFactory(), Budget: 10,
			Estimators: []EstimatorSpec{{Kind: Aggregate(9)}},
		}},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid spec", tc.name)
		}
	}
	if err := baseSpec(g).Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestRunDeterministicAcrossWorkerCounts mirrors the engine's
// Workers=1-vs-N test at the session layer: the full Result — every
// estimate, interval, chain accounting — must be bit-identical for any
// pool size. The GNRW cases run concurrent chains over one shared
// stratum table (under -race, that is the table's concurrency check).
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	g := testGraph(t)
	spec := baseSpec(g)
	spec.Chains = 8
	spec.Estimators = []EstimatorSpec{
		{Kind: AggAvgDegree},
		{Kind: AggMean, Attr: "score"},
		{Kind: AggProportion, Attr: "score", Predicate: func(v float64) bool { return v >= 5 }},
	}
	specs := map[string]Spec{"cnrw": spec}
	mg := mergeGraph(t)
	for _, name := range []string{"gnrw-degree", "gnrw-md5", "gnrw-reviews"} {
		factory, err := registry.WalkerByName(name, registry.WalkerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		specs[name] = Spec{
			Graph: mg, Walker: factory, Budget: 120, Chains: 8, Seed: 7,
			Estimators: []EstimatorSpec{{Kind: AggAvgDegree}, {Kind: AggMean, Attr: dataset.AttrReviews}},
		}
	}
	for name, spec := range specs {
		var results []*Result
		for _, workers := range []int{1, 3, 8} {
			spec.Workers = workers
			res, err := Run(context.Background(), spec)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			results = append(results, res)
		}
		for i := 1; i < len(results); i++ {
			if !reflect.DeepEqual(results[0], results[i]) {
				t.Fatalf("%s: results differ between worker counts:\n%+v\nvs\n%+v", name, results[0], results[i])
			}
		}
	}
}

// TestSessionMatchesRun drives the same spec incrementally through a
// Session and checks the final Result is identical to Run's: chains
// share nothing, so the round-robin interleaving cannot change any
// chain's path.
func TestSessionMatchesRun(t *testing.T) {
	g := testGraph(t)
	spec := baseSpec(g)
	spec.Chains = 4
	spec.BurnIn = 5
	spec.Thin = 2
	batch, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		u, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if u.Step < 1 || u.Chain < 0 || u.Chain >= spec.Chains {
			t.Fatalf("malformed update %+v", u)
		}
		steps++
	}
	if !s.Done() {
		t.Fatal("session not done after Next returned ok=false")
	}
	inc, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch, inc) {
		t.Fatalf("session result differs from run result:\n%+v\nvs\n%+v", batch, inc)
	}
	if steps != batch.TotalSteps {
		t.Fatalf("session stepped %d times, run recorded %d", steps, batch.TotalSteps)
	}
}

func TestRunEstimatesAndIntervals(t *testing.T) {
	g := testGraph(t)
	spec := baseSpec(g)
	spec.Chains = 6
	spec.Budget = 80
	spec.CIBatch = 25
	spec.Estimators = []EstimatorSpec{
		{Kind: AggAvgDegree},
		{Name: "mean score", Kind: AggMean, Attr: "score"},
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimates) != 2 {
		t.Fatalf("estimates = %d", len(res.Estimates))
	}
	avg := res.Estimates[0]
	if avg.Name != "avg(degree)" {
		t.Fatalf("derived name = %q", avg.Name)
	}
	if estimate.RelativeError(avg.Point, g.AvgDegree()) > 0.5 {
		t.Fatalf("avg degree estimate %v wildly off truth %v", avg.Point, g.AvgDegree())
	}
	if len(avg.PerChain) != 6 {
		t.Fatalf("per-chain = %d", len(avg.PerChain))
	}
	if !avg.HasInterval {
		t.Fatal("no pooled interval despite thousands of samples")
	}
	if !avg.Interval.Contains(avg.Point) || avg.Interval.Width() <= 0 {
		t.Fatalf("malformed interval %+v", avg.Interval)
	}
	if avg.GelmanRubin <= 0 {
		t.Fatalf("R̂ = %v, want computed", avg.GelmanRubin)
	}
	sc, ok := res.Lookup("mean score")
	if !ok {
		t.Fatal("Lookup failed for named estimator")
	}
	truth, _ := g.MeanAttr("score")
	if estimate.RelativeError(sc.Point, truth) > 0.6 {
		t.Fatalf("score estimate %v vs truth %v", sc.Point, truth)
	}
	for _, c := range res.Chains {
		if c.Queries < 1 || c.Queries > spec.Budget+1 {
			t.Fatalf("chain queries = %d outside (0, budget]", c.Queries)
		}
		if c.Requests < c.Queries {
			t.Fatalf("requests %d < unique queries %d", c.Requests, c.Queries)
		}
		if c.Samples != c.Steps {
			t.Fatalf("with no burn-in/thinning samples %d != steps %d", c.Samples, c.Steps)
		}
	}
}

func TestBurnInAndThinning(t *testing.T) {
	g := testGraph(t)
	spec := baseSpec(g)
	spec.Chains = 1
	spec.BurnIn = 10
	spec.Thin = 3
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Chains[0]
	want := (c.Steps - spec.BurnIn + spec.Thin - 1) / spec.Thin
	if c.Steps <= spec.BurnIn {
		t.Fatalf("walk too short to test burn-in (%d steps)", c.Steps)
	}
	if c.Samples != want {
		t.Fatalf("retained %d samples, want %d of %d steps", c.Samples, want, c.Steps)
	}
	if res.Estimates[0].Samples != c.Samples {
		t.Fatalf("estimate pooled %d samples, chain retained %d", res.Estimates[0].Samples, c.Samples)
	}
}

// TestClientModeBudgetedStopsCleanly is the regression test for budget
// exhaustion mid-walk: a Budgeted client runs dry and the session must
// end the chain cleanly with exact spend accounting instead of failing.
func TestClientModeBudgetedStopsCleanly(t *testing.T) {
	g := testGraph(t)
	b := access.NewBudgeted(access.NewSimulator(g), 25)
	res, err := Run(context.Background(), Spec{
		Client: b,
		Start:  1,
		Walker: core.CNRWFactory(),
		Budget: 1 << 30, // session budget far beyond the client's own
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalQueries != 25 {
		t.Fatalf("spent %d unique queries, want the client budget 25", res.TotalQueries)
	}
	if res.Chains[0].Steps < 1 || res.Estimates[0].Samples < 1 {
		t.Fatal("no samples before exhaustion")
	}
	if math.IsNaN(res.Estimates[0].Point) {
		t.Fatal("NaN estimate")
	}
}

// TestClientModeSaturationStops reproduces the client-mode hang: a
// budgeted client whose budget exceeds the reachable unique-node count
// never returns ErrBudgetExhausted, so without the progress-scaled cap
// the walk would run toward 200×Spec.Budget (~2×10^11) steps.
func TestClientModeSaturationStops(t *testing.T) {
	g := graph.Complete(50)
	b := access.NewBudgeted(access.NewSimulator(g), 1000) // > 50 reachable nodes
	res, err := Run(context.Background(), Spec{
		Client: b,
		Start:  0,
		Walker: core.SRWFactory(),
		Budget: 1 << 30,
		Seed:   9,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Chains[0]
	if c.Queries != 50 {
		t.Fatalf("spent %d unique queries, want the whole 50-node graph", c.Queries)
	}
	if c.Steps > 200*(50+1) {
		t.Fatalf("walk ran %d steps past saturation", c.Steps)
	}
}

func TestClientModeAttributeMeasure(t *testing.T) {
	g := testGraph(t)
	sim := access.NewSimulator(g)
	res, err := Run(context.Background(), Spec{
		Client: sim,
		Start:  0,
		Walker: core.SRWFactory(),
		Budget: 30,
		Seed:   5,
		Estimators: []EstimatorSpec{
			{Kind: AggMean, Attr: "score"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := g.MeanAttr("score")
	if estimate.RelativeError(res.Estimates[0].Point, truth) > 1.0 {
		t.Fatalf("client-mode score estimate %v vs truth %v", res.Estimates[0].Point, truth)
	}
	if res.TotalQueries > 30+1 {
		t.Fatalf("spent %d, budget 30", res.TotalQueries)
	}
	// The client reports request totals, so Client mode must surface
	// them like Graph mode does.
	if res.Chains[0].Requests < res.Chains[0].Queries || res.Chains[0].Requests != sim.TotalRequests() {
		t.Fatalf("client-mode Requests = %d, want the client's %d", res.Chains[0].Requests, sim.TotalRequests())
	}
	if res.GlobalRequests != res.Chains[0].Requests {
		t.Fatalf("GlobalRequests = %d, want %d", res.GlobalRequests, res.Chains[0].Requests)
	}
}

func TestRunUnknownAttribute(t *testing.T) {
	g := testGraph(t)
	spec := baseSpec(g)
	spec.Estimators = []EstimatorSpec{{Kind: AggMean, Attr: "missing"}}
	if _, err := Run(context.Background(), spec); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

func TestRunContextCancellation(t *testing.T) {
	g := testGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := baseSpec(g)
	spec.Chains = 4
	if _, err := Run(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCostStepsMetering(t *testing.T) {
	g := testGraph(t)
	spec := baseSpec(g)
	spec.Chains = 2
	spec.Budget = 500 // exceeds the node count: only meaningful per-step
	spec.Cost = engine.CostSteps
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Chains {
		if c.Steps != spec.Budget {
			t.Fatalf("chain took %d steps, want exactly the step budget %d", c.Steps, spec.Budget)
		}
	}
}

// TestSharedCacheBitIdenticalToIsolated is the PR's acceptance
// criterion: for the same Spec, a multi-chain run with the shared
// cross-chain cache must produce bit-identical per-chain trajectories,
// estimates and budget accounting to the isolated-cache run, for any
// Workers value — only the global network-cost accounting may differ,
// and on an overlapping run the shared global cost must be strictly
// below the sum of the per-chain costs.
func TestSharedCacheBitIdenticalToIsolated(t *testing.T) {
	g := testGraph(t)
	spec := baseSpec(g)
	spec.Chains = 8
	spec.Budget = 40 // 8 chains × 40 on a ~120-node graph: heavy overlap
	spec.Estimators = []EstimatorSpec{
		{Kind: AggAvgDegree},
		{Kind: AggMean, Attr: "score"},
	}
	iso, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		shSpec := spec
		shSpec.Cache = CacheShared
		shSpec.Workers = workers
		sh, err := Run(context.Background(), shSpec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(iso.Estimates, sh.Estimates) {
			t.Fatalf("workers=%d: estimates differ between cache policies:\n%+v\nvs\n%+v", workers, iso.Estimates, sh.Estimates)
		}
		if !reflect.DeepEqual(iso.Chains, sh.Chains) {
			t.Fatalf("workers=%d: per-chain accounting differs between cache policies:\n%+v\nvs\n%+v", workers, iso.Chains, sh.Chains)
		}
		if iso.TotalSteps != sh.TotalSteps || iso.TotalQueries != sh.TotalQueries {
			t.Fatalf("workers=%d: totals differ: steps %d vs %d, queries %d vs %d",
				workers, iso.TotalSteps, sh.TotalSteps, iso.TotalQueries, sh.TotalQueries)
		}
		// The chains overlap, so the shared cache must have paid the
		// network strictly less than the sum of per-chain costs.
		if sh.GlobalQueries >= sh.TotalQueries {
			t.Fatalf("workers=%d: shared global cost %d not below sum of per-chain costs %d",
				workers, sh.GlobalQueries, sh.TotalQueries)
		}
		// Ledger identity: every chain-locally-new query either paid the
		// network or hit a sibling's fetch.
		if sh.GlobalQueries+sh.CrossChainHits != sh.TotalQueries {
			t.Fatalf("workers=%d: ledger does not balance: %d global + %d hits != %d local",
				workers, sh.GlobalQueries, sh.CrossChainHits, sh.TotalQueries)
		}
		if sh.CrossChainHits <= 0 || sh.CrossChainHitRate <= 0 || sh.CrossChainHitRate >= 1 {
			t.Fatalf("workers=%d: hit accounting %d (rate %v) not in (0, 1)", workers, sh.CrossChainHits, sh.CrossChainHitRate)
		}
		if sh.GlobalQueries > g.NumNodes() {
			t.Fatalf("workers=%d: global cost %d exceeds node count %d", workers, sh.GlobalQueries, g.NumNodes())
		}
	}
	// Isolated runs report the degenerate global view: cost is the sum
	// of per-chain costs and nothing crosses chains.
	if iso.GlobalQueries != iso.TotalQueries || iso.CrossChainHits != 0 || iso.CrossChainHitRate != 0 {
		t.Fatalf("isolated global accounting %d/%d/%v, want %d/0/0",
			iso.GlobalQueries, iso.CrossChainHits, iso.CrossChainHitRate, iso.TotalQueries)
	}
}

// TestSharedCacheSessionMatchesRun drives a shared-cache spec
// incrementally and checks the final Result equals Run's — the
// round-robin interleaving changes which chain pays the network for a
// shared node, but never the deterministic totals.
func TestSharedCacheSessionMatchesRun(t *testing.T) {
	g := testGraph(t)
	spec := baseSpec(g)
	spec.Chains = 4
	spec.Cache = CacheShared
	batch, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	inc, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch, inc) {
		t.Fatalf("shared-cache session result differs from run result:\n%+v\nvs\n%+v", batch, inc)
	}
}

// TestRunRefusesDegradedWalker: when a factory has to substitute a
// fallback walker (here: a frontier sampler whose bootstrap queries an
// exhausted client refused), the run must fail naming the degradation
// instead of reporting a Result under the wrong algorithm label.
func TestRunRefusesDegradedWalker(t *testing.T) {
	g := testGraph(t)
	exhausted := access.NewBudgeted(access.NewSimulator(g), 0)
	_, err := Run(context.Background(), Spec{
		Client: exhausted,
		Start:  0,
		Walker: core.FrontierFactory(3),
		Budget: 10,
		Seed:   4,
	})
	if err == nil {
		t.Fatal("degraded walker ran under the Frontier label")
	}
	if !strings.Contains(err.Error(), "degraded") {
		t.Fatalf("err = %v, want the degradation named", err)
	}
}

func TestSharedCacheValidation(t *testing.T) {
	g := testGraph(t)
	sim := access.NewSimulator(g)
	bad := []struct {
		name string
		spec Spec
	}{
		{"client mode", Spec{Client: sim, Walker: core.SRWFactory(), Budget: 10, Cache: CacheShared}},
		{"unknown policy", Spec{Graph: g, Walker: core.SRWFactory(), Budget: 10, Cache: CachePolicy(9)}},
	}
	for _, tc := range bad {
		if err := tc.spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid spec", tc.name)
		}
	}
	ok := baseSpec(g)
	ok.Cache = CacheShared
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid shared-cache spec rejected: %v", err)
	}
}

func TestSessionProgressStreams(t *testing.T) {
	g := testGraph(t)
	spec := baseSpec(g)
	spec.Chains = 2
	var calls int
	var last Progress
	spec.Progress = func(p Progress) { calls++; last = p }
	s, err := NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	// one callback per transition plus the final completion snapshot
	if calls != res.TotalSteps+1 {
		t.Fatalf("progress called %d times, want %d (one per transition + final)", calls, res.TotalSteps+1)
	}
	if last.Steps != res.TotalSteps || last.Chains != 2 || last.ChainsDone != 2 {
		t.Fatalf("final progress %+v inconsistent with result", last)
	}
	// the final snapshot is delivered once, not on every further Next
	if _, ok, _ := s.Next(); ok {
		t.Fatal("Next returned ok after completion")
	}
	if calls != res.TotalSteps+1 {
		t.Fatalf("completion snapshot re-delivered (%d calls)", calls)
	}
}
