package experiment

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"histwalk/internal/core"
	"histwalk/internal/engine"
	"histwalk/internal/estimate"
	"histwalk/internal/graph"
	"histwalk/internal/session"
)

func testFactories() []core.Factory {
	return []core.Factory{core.SRWFactory(), core.CNRWFactory()}
}

// oneTrial runs trial 0 of a series of f over g (stream "test",
// seed 1) and returns its snapshots.
func oneTrial(g *graph.Graph, f core.Factory, attr string, budgets []int, cost CostModel) ([]snapshot, error) {
	snaps, err := runTrials(context.Background(), 1, g, f, attr, budgets, 1, 1, engine.StreamID("test"), cost)
	if err != nil {
		return nil, err
	}
	return snaps[0], nil
}

// chainUpdates runs trial 0 of the same series as oneTrial as a bare
// session chain and returns its transitions and accounting.
func chainUpdates(t *testing.T, g *graph.Graph, f core.Factory, budgets []int, cost CostModel) ([]session.Update, session.ChainResult) {
	t.Helper()
	spec, err := trialSpec(g, f, "degree", budgets, 1, 1, engine.StreamID("test"), cost)
	if err != nil {
		t.Fatal(err)
	}
	var us []session.Update
	res, err := session.RunChain(context.Background(), spec, 0, func(u session.Update, _ session.ChainView) error {
		us = append(us, u)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return us, res
}

func testGraph() *graph.Graph {
	rng := rand.New(rand.NewSource(81))
	g := graph.PlantedPartition([]int{20, 20, 20}, 0.5, 0.02, rng).LargestComponent()
	g.SetName("sbm60")
	return g
}

func TestCostModelString(t *testing.T) {
	if CostUnique.String() != "unique-queries" || CostSteps.String() != "steps" {
		t.Fatal("cost model strings wrong")
	}
	if CostModel(9).String() == "" {
		t.Fatal("unknown cost model should still stringify")
	}
}

// TestTrialCheckpoints pins the snapshot rule: a trial records, at
// each budget, the estimate over every step so far and the node the
// walk occupied when its spend first reached that budget.
func TestTrialCheckpoints(t *testing.T) {
	g := testGraph()
	budgets := []int{5, 10, 20}
	snaps, err := oneTrial(g, core.SRWFactory(), "degree", budgets, CostUnique)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != len(budgets) {
		t.Fatalf("%d snapshots for %d budgets", len(snaps), len(budgets))
	}
	us, res := chainUpdates(t, g, core.SRWFactory(), budgets, CostUnique)
	if res.Queries < budgets[len(budgets)-1] || res.Steps != len(us) {
		t.Fatalf("chain spent %d in %d steps over %d updates", res.Queries, res.Steps, len(us))
	}
	est := estimate.NewMean(estimate.DegreeProportional)
	next := 0
	for _, u := range us {
		d := g.Degree(u.Node)
		if err := est.Add(float64(d), d); err != nil {
			t.Fatal(err)
		}
		for ; next < len(budgets) && u.Spent >= budgets[next]; next++ {
			want, err := est.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			if snaps[next] != (snapshot{want, u.Node}) {
				t.Fatalf("budget %d: snapshot %+v, want %v at node %d", budgets[next], snaps[next], want, u.Node)
			}
			if want <= 0 {
				t.Fatalf("budget %d: estimate %v", budgets[next], want)
			}
		}
	}
	if next != len(budgets) {
		t.Fatalf("chain reached %d of %d budgets", next, len(budgets))
	}
}

// TestTrialStepsCost pins CostSteps metering: a trial takes exactly the
// last budget's number of steps, and snapshots at the budget-th step.
func TestTrialStepsCost(t *testing.T) {
	g := testGraph()
	budgets := []int{7, 15}
	us, res := chainUpdates(t, g, core.SRWFactory(), budgets, CostSteps)
	if res.Steps != 15 || len(us) != 15 {
		t.Fatalf("steps = %d (%d updates), want exactly 15 under CostSteps", res.Steps, len(us))
	}
	snaps, err := oneTrial(g, core.SRWFactory(), "degree", budgets, CostSteps)
	if err != nil {
		t.Fatal(err)
	}
	if snaps[0].node != us[6].Node || snaps[1].node != us[14].Node {
		t.Fatalf("snapshot nodes %d, %d; want steps 7 and 15 at %d, %d",
			snaps[0].node, snaps[1].node, us[6].Node, us[14].Node)
	}
}

func TestTrialBudgetsValidation(t *testing.T) {
	g := testGraph()
	if _, err := oneTrial(g, core.SRWFactory(), "degree", nil, CostUnique); err == nil {
		t.Fatal("empty budgets accepted")
	}
	if _, err := oneTrial(g, core.SRWFactory(), "degree", []int{10, 5}, CostUnique); err == nil {
		t.Fatal("non-ascending budgets accepted")
	}
	if _, err := oneTrial(g, core.SRWFactory(), "no_such_attr", []int{5}, CostUnique); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

func TestTrialSaturationFreeze(t *testing.T) {
	// Budget above the node count can never be reached with unique
	// queries; the trial must terminate and freeze the checkpoints.
	g := graph.Complete(6)
	snaps, err := oneTrial(g, core.SRWFactory(), "degree", []int{3, 1000}, CostUnique)
	if err != nil {
		t.Fatal(err)
	}
	us, _ := chainUpdates(t, g, core.SRWFactory(), []int{3, 1000}, CostUnique)
	if last := us[len(us)-1]; last.Spent != 6 || snaps[1].node != last.Node {
		t.Fatalf("froze at node %d, but the walk ended at node %d after spending %d", snaps[1].node, last.Node, last.Spent)
	}
	// K6 degree estimate should be exact (up to floating-point
	// accumulation): every node has degree 5.
	if d := snaps[1].estimate - 5; d > 1e-9 || d < -1e-9 {
		t.Fatalf("estimate = %v, want 5", snaps[1].estimate)
	}
}

// TestTrialWithoutSamplesFails pins the no-sample failure: a trial
// whose chain retained no sample has no estimate to report at any
// budget, so it fails with the estimator's no-samples error instead of
// freezing a zero estimate. Frontier sampling's bootstrap queries its
// 5 seeds, which spends a budget of 1 unique query before the first
// transition.
func TestTrialWithoutSamplesFails(t *testing.T) {
	g := testGraph()
	us, res := chainUpdates(t, g, core.FrontierFactory(5), []int{1}, CostUnique)
	if len(us) != 0 || res.Samples != 0 {
		t.Fatalf("chain moved %d times and kept %d samples, want none", len(us), res.Samples)
	}
	snaps, err := oneTrial(g, core.FrontierFactory(5), "degree", []int{1}, CostUnique)
	if !errors.Is(err, estimate.ErrNoSamples) {
		t.Fatalf("snapshots %+v, err = %v; want estimate.ErrNoSamples", snaps, err)
	}
}

// TestTrialSimulatorIsPrivate asserts the no-shared-state invariant the
// lock-free fan-out rests on: concurrent trials of one series must each
// see a fresh cache (spend starting at zero), which can only hold if
// every trial owns its Simulator.
func TestTrialSimulatorIsPrivate(t *testing.T) {
	g := testGraph()
	spec, err := trialSpec(g, core.CNRWFactory(), "degree", []int{15}, 64, 7, engine.StreamID("private"), CostUnique)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]int, spec.Chains)
	err = engine.New(engine.Options{Workers: 8}).Each(context.Background(), spec.Chains, func(ctx context.Context, c int) error {
		res, err := session.RunChain(ctx, spec, c, nil)
		queries[c] = res.Queries
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for c, q := range queries {
		// A shared simulator would accumulate cost across trials far
		// beyond one trial's budget regime; a private one lands at the
		// budget, give or take the final step's new neighbors.
		if q < 15 || q > g.NumNodes() {
			t.Fatalf("trial %d: query cost %d outside private-simulator range", c, q)
		}
	}
}

func TestEstimationFigureShape(t *testing.T) {
	g := testGraph()
	fig, err := EstimationFigure(EstimationConfig{
		ID: "t", Title: "t", Graph: g, Attr: "degree",
		Factories: testFactories(),
		Budgets:   []int{10, 20, 40},
		Trials:    30, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.X) != 3 || len(s.Y) != 3 || len(s.YErr) != 3 {
			t.Fatalf("series %s has wrong lengths", s.Name)
		}
		// error decreases with budget on this well-behaved graph
		if s.Y[2] >= s.Y[0] {
			t.Fatalf("series %s: error did not decrease (%.4f → %.4f)", s.Name, s.Y[0], s.Y[2])
		}
		for _, y := range s.Y {
			if y < 0 || y > 2 {
				t.Fatalf("series %s: implausible error %v", s.Name, y)
			}
		}
	}
	if _, err := EstimationFigure(EstimationConfig{Graph: g, Attr: "degree", Factories: testFactories(), Budgets: []int{5}, Trials: 0}); err == nil {
		t.Fatal("zero trials accepted")
	}
}

func TestEstimationFigureSharedStarts(t *testing.T) {
	// The same trial seed must give every algorithm the same start node:
	// an estimation figure's series share its stream.
	g := testGraph()
	_, a := chainUpdates(t, g, core.SRWFactory(), []int{3}, CostUnique)
	_, b := chainUpdates(t, g, core.CNRWFactory(), []int{3}, CostUnique)
	if a.Start != b.Start || a.Seed != b.Seed {
		t.Fatalf("trial 0 starts at %d (seed %d) for SRW and %d (seed %d) for CNRW", a.Start, a.Seed, b.Start, b.Seed)
	}
}

func TestDistanceFiguresShape(t *testing.T) {
	g := testGraph()
	res, err := DistanceFigures(DistanceConfig{
		IDPrefix: "t", Title: "t", Graph: g, Attr: "degree",
		Factories: testFactories(),
		Budgets:   []int{10, 30},
		Trials:    80, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range []*Figure{res.KL, res.L2, res.Err} {
		if len(fig.Series) != 2 {
			t.Fatalf("%s: series = %d", fig.ID, len(fig.Series))
		}
		for _, s := range fig.Series {
			if len(s.Y) != 2 {
				t.Fatalf("%s/%s: %d points", fig.ID, s.Name, len(s.Y))
			}
			for _, y := range s.Y {
				if y < 0 {
					t.Fatalf("%s/%s: negative measure %v", fig.ID, s.Name, y)
				}
			}
		}
	}
	if res.KL.ID != "t-kl" || res.L2.ID != "t-l2" || res.Err.ID != "t-err" {
		t.Fatal("figure IDs wrong")
	}
}

func TestStationaryFigure(t *testing.T) {
	g := graph.Barbell(6)
	fig, err := StationaryFigure(StationaryConfig{
		ID: "t8", Title: "t", Graph: g,
		Factories: testFactories(),
		Walks:     10, StepsPerWalk: 20000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 { // Theoretical + 2 algorithms
		t.Fatalf("series = %d", len(fig.Series))
	}
	if fig.Series[0].Name != "Theoretical" {
		t.Fatal("first series must be Theoretical")
	}
	// X is the degree-sorted rank; theoretical Y must be non-decreasing.
	th := fig.Series[0]
	for i := 1; i < len(th.Y); i++ {
		if th.Y[i] < th.Y[i-1]-1e-12 {
			t.Fatal("theoretical series not sorted by degree")
		}
	}
	// Long walks converge: both algorithms close to theoretical.
	for _, name := range []string{"SRW", "CNRW"} {
		d, err := StationaryDeviation(fig, name)
		if err != nil {
			t.Fatal(err)
		}
		if d > 0.02 {
			t.Fatalf("%s deviates %v from theoretical", name, d)
		}
	}
	if _, err := StationaryDeviation(fig, "nope"); err == nil {
		t.Fatal("unknown series accepted")
	}
	if _, err := StationaryFigure(StationaryConfig{Graph: g, Factories: testFactories()}); err == nil {
		t.Fatal("zero walks accepted")
	}
}

func TestSizeSweepFigures(t *testing.T) {
	res, err := SizeSweepFigures(SizeSweepConfig{
		IDPrefix: "t11", Title: "t",
		Sizes:     []int{12, 20},
		Make:      func(size int) *graph.Graph { return graph.Barbell(size / 2) },
		BudgetFor: func(size int) int { return size / 2 },
		Factories: testFactories(),
		Attr:      "degree",
		Trials:    25, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range []*Figure{res.KL, res.L2, res.Err} {
		for _, s := range fig.Series {
			if len(s.X) != 2 || s.X[0] != 12 || s.X[1] != 20 {
				t.Fatalf("%s/%s: X = %v", fig.ID, s.Name, s.X)
			}
		}
	}
}

func TestBarbellEscapeTheorem3(t *testing.T) {
	res, err := BarbellEscape(EscapeConfig{CliqueSize: 20, Steps: 300000, Episodes: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// SRW's per-visit crossing probability is 1/|G1|.
	if res.PSRW < 0.03 || res.PSRW > 0.08 {
		t.Fatalf("PSRW = %v, want ≈ 1/20 = 0.05", res.PSRW)
	}
	// Theorem 3: the ratio exceeds |G1|·ln|G1|/(|G1|−1).
	if res.Ratio <= res.Bound {
		t.Fatalf("Theorem 3 violated: ratio %.3f <= bound %.3f", res.Ratio, res.Bound)
	}
	// hazard at fill level 0 ≈ 1/k; at deeper fills it grows
	if res.OppsByFill[0] == 0 {
		t.Fatal("no fill-0 opportunities observed")
	}
	if res.HazardByFill[0] < 0.02 || res.HazardByFill[0] > 0.09 {
		t.Fatalf("hazard[0] = %v, want ≈ 0.05", res.HazardByFill[0])
	}
	if res.MeanEscapeStepsSRW <= 0 || res.MeanEscapeStepsCNRW <= 0 {
		t.Fatal("escape episodes did not run")
	}
	if _, err := BarbellEscape(EscapeConfig{CliqueSize: 1}); err == nil {
		t.Fatal("degenerate clique accepted")
	}
}

func TestDatasetTableRendering(t *testing.T) {
	g1 := graph.Complete(5)
	g1.SetName("k5")
	g2 := graph.Barbell(4)
	tb := DatasetTable([]*graph.Graph{g1, g2})
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"table1", "k5", "barbell-8", "triangles"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFigureRendering(t *testing.T) {
	fig := &Figure{
		ID: "fx", Title: "demo", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{0.5, 0.25}},
			{Name: "b", X: []float64{2, 3}, Y: []float64{0.1, 0.05}, YErr: []float64{0.01, 0.01}},
		},
	}
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fx", "demo", "0.5000", "0.1000±0.0100", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered figure missing %q:\n%s", want, out)
		}
	}
	// FinalValue / SeriesByName
	if v, ok := fig.FinalValue("a"); !ok || v != 0.25 {
		t.Fatalf("FinalValue = %v,%v", v, ok)
	}
	if _, ok := fig.FinalValue("zzz"); ok {
		t.Fatal("unknown series had a final value")
	}
	if fig.SeriesByName("b") == nil || fig.SeriesByName("zzz") != nil {
		t.Fatal("SeriesByName wrong")
	}
}

func TestRandomStartSkipsIsolated(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(1, 2) // nodes 0 and 3 isolated
	g := b.Build()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		v, err := engine.RandomStart(g, rng)
		if err != nil {
			t.Fatal(err)
		}
		if v != 1 && v != 2 {
			t.Fatalf("picked isolated node %d", v)
		}
	}
	if _, err := engine.RandomStart(graph.NewBuilder(0).Build(), rng); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestGroundTruth(t *testing.T) {
	g := graph.Complete(4)
	if err := g.SetAttr("x", []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	v, err := groundTruth(g, "degree")
	if err != nil || v != 3 {
		t.Fatalf("degree truth = %v, %v", v, err)
	}
	v, err = groundTruth(g, "x")
	if err != nil || v != 2.5 {
		t.Fatalf("attr truth = %v, %v", v, err)
	}
	if _, err := groundTruth(g, "nope"); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}
