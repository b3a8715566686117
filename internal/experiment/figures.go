package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"histwalk/internal/access"
	"histwalk/internal/core"
	"histwalk/internal/engine"
	"histwalk/internal/estimate"
	"histwalk/internal/graph"
	"histwalk/internal/stats"
)

// EstimationConfig parameterizes a relative-error-vs-query-cost figure
// (Figures 6, 7c, 7d and 9 of the paper).
type EstimationConfig struct {
	// ID and Title label the output figure. The ID also names the seed
	// stream (unless Stream overrides it), so two figures with the same
	// master seed but different IDs draw disjoint trial-seed sequences.
	ID, Title string
	// Stream optionally overrides the seed-stream label (default: ID).
	// Figures that must share trial walks — e.g. two panels measuring
	// the same trajectories under different attributes — set the same
	// Stream.
	Stream string
	// Graph is the dataset.
	Graph *graph.Graph
	// Attr is the measure attribute ("degree" for the average-degree
	// aggregate).
	Attr string
	// Factories are the algorithms to compare.
	Factories []core.Factory
	// Budgets are the unique-query checkpoints (ascending).
	Budgets []int
	// Trials is the number of independent walks per algorithm.
	Trials int
	// Seed derives all per-trial seeds (through the engine's mixer).
	Seed int64
	// Cost selects the budget metering (default CostUnique).
	Cost CostModel
	// Workers bounds concurrent trial execution (0 = GOMAXPROCS).
	// Results are identical for every worker count.
	Workers int
	// Ctx, when non-nil, cancels the experiment early: the engine stops
	// dispatching trials and the runner returns the cancellation cause.
	Ctx context.Context
}

// EstimationFigure measures, for each algorithm and query budget, the
// mean relative error of the aggregate estimate over independent
// trials. Trial seeds are shared across algorithms, so every algorithm
// sees the same sequence of start nodes. Trials run on the worker-pool
// engine; the figure is bit-identical for any Workers value.
func EstimationFigure(cfg EstimationConfig) (*Figure, error) {
	if cfg.Trials < 1 {
		return nil, errors.New("experiment: Trials must be >= 1")
	}
	truth, err := groundTruth(cfg.Graph, cfg.Attr)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     cfg.ID,
		Title:  cfg.Title,
		XLabel: "query_cost",
		YLabel: "relative_error",
	}
	label := cfg.Stream
	if label == "" {
		label = cfg.ID
	}
	stream := engine.StreamID("estimation", label)
	for _, f := range cfg.Factories {
		trials, err := runTrials(ctxOf(cfg.Ctx), cfg.Workers, cfg.Graph, f, cfg.Attr,
			cfg.Budgets, cfg.Trials, cfg.Seed, stream, cfg.Cost)
		if err != nil {
			return nil, err
		}
		acc := make([]stats.Welford, len(cfg.Budgets))
		for _, snaps := range trials {
			for i, s := range snaps {
				acc[i].Add(estimate.RelativeError(s.estimate, truth))
			}
		}
		s := Series{Name: f.Name}
		for i, b := range cfg.Budgets {
			s.X = append(s.X, float64(b))
			s.Y = append(s.Y, acc[i].Mean())
			s.YErr = append(s.YErr, acc[i].StdErr())
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// DistanceConfig parameterizes the sampling-bias figures that report
// KL-divergence, ℓ2 distance and estimation error against query cost
// (Figures 7a–7c and 10a–10c).
type DistanceConfig struct {
	// IDPrefix labels the three output figures (IDPrefix+"-kl" etc.)
	// and names the seed stream.
	IDPrefix, Title string
	// Graph is the dataset (must be small enough that the empirical
	// visit distribution is meaningful).
	Graph *graph.Graph
	// Attr is the measure attribute for the error sub-figure.
	Attr string
	// Factories are the algorithms to compare.
	Factories []core.Factory
	// Budgets are the unique-query checkpoints (ascending).
	Budgets []int
	// Trials is the number of independent walks per algorithm.
	Trials int
	// Seed derives all per-trial seeds (through the engine's mixer).
	Seed int64
	// Cost selects the budget metering. The paper's Figures 7/10/11 use
	// budgets exceeding the node count, so their runners set CostSteps.
	Cost CostModel
	// Workers bounds concurrent trial execution (0 = GOMAXPROCS).
	Workers int
	// Ctx, when non-nil, cancels the experiment early: the engine stops
	// dispatching trials and the runner returns the cancellation cause.
	Ctx context.Context
}

// DistanceResult bundles the three sub-figures produced by
// DistanceFigures.
type DistanceResult struct {
	// KL is the symmetric KL-divergence figure.
	KL *Figure
	// L2 is the ℓ2-distance figure.
	L2 *Figure
	// Err is the relative-error figure.
	Err *Figure
}

// DistanceFigures runs the bias experiment of §6.1: for every query
// budget it collects, across many independent trials, the node each walk
// occupies when the budget is spent — the node a budget-c crawler would
// return as its sample — and compares that *sampling distribution* with
// the theoretical π(v) = k_v/2|E| via symmetric KL-divergence and ℓ2
// distance. Estimation error is measured from the same walks.
//
// Note the measured distance includes a finite-trials noise floor of
// roughly (n−1)/Trials nats (symmetric KL), identical for all
// algorithms, so curves are comparable to each other at equal Trials —
// the same caveat applies to the paper's measurements.
func DistanceFigures(cfg DistanceConfig) (*DistanceResult, error) {
	if cfg.Trials < 1 {
		return nil, errors.New("experiment: Trials must be >= 1")
	}
	truth, err := groundTruth(cfg.Graph, cfg.Attr)
	if err != nil {
		return nil, err
	}
	theo := cfg.Graph.TheoreticalStationary()
	n := cfg.Graph.NumNodes()
	res := &DistanceResult{
		KL:  &Figure{ID: cfg.IDPrefix + "-kl", Title: cfg.Title + " — symmetric KL-divergence", XLabel: "query_cost", YLabel: "kl_divergence"},
		L2:  &Figure{ID: cfg.IDPrefix + "-l2", Title: cfg.Title + " — l2 distance", XLabel: "query_cost", YLabel: "l2_distance"},
		Err: &Figure{ID: cfg.IDPrefix + "-err", Title: cfg.Title + " — estimation error", XLabel: "query_cost", YLabel: "relative_error"},
	}
	stream := engine.StreamID("distance", cfg.IDPrefix)
	for _, f := range cfg.Factories {
		trials, err := runTrials(ctxOf(cfg.Ctx), cfg.Workers, cfg.Graph, f, cfg.Attr,
			cfg.Budgets, cfg.Trials, cfg.Seed, stream, cfg.Cost)
		if err != nil {
			return nil, err
		}
		counters := make([]*stats.VisitCounter, len(cfg.Budgets))
		for i := range counters {
			counters[i] = stats.NewVisitCounter(n)
		}
		errAcc := make([]stats.Welford, len(cfg.Budgets))
		for _, snaps := range trials {
			for i, s := range snaps {
				errAcc[i].Add(estimate.RelativeError(s.estimate, truth))
				// The sample a budget-c crawler would return: the node
				// the walk occupied when the c-th unique query was spent.
				counters[i].Visit(s.node)
			}
		}
		kl := Series{Name: f.Name}
		l2 := Series{Name: f.Name}
		es := Series{Name: f.Name}
		for i, b := range cfg.Budgets {
			x := float64(b)
			// Laplace-smooth the sparse empirical sampling distribution
			// so its zero entries do not blow up the divergence; the
			// smoothing (and its noise floor) is identical across
			// algorithms at equal Trials.
			dist, err := stats.LaplaceSmooth(counters[i].Counts(), 0.5)
			if err != nil {
				return nil, err
			}
			klv, err := stats.SymmetricKL(dist, theo)
			if err != nil {
				return nil, fmt.Errorf("experiment: KL at budget %d: %w", b, err)
			}
			l2v, err := stats.L2Distance(dist, theo)
			if err != nil {
				return nil, fmt.Errorf("experiment: l2 at budget %d: %w", b, err)
			}
			kl.X = append(kl.X, x)
			kl.Y = append(kl.Y, klv)
			l2.X = append(l2.X, x)
			l2.Y = append(l2.Y, l2v)
			es.X = append(es.X, x)
			es.Y = append(es.Y, errAcc[i].Mean())
			es.YErr = append(es.YErr, errAcc[i].StdErr())
		}
		res.KL.Series = append(res.KL.Series, kl)
		res.L2.Series = append(res.L2.Series, l2)
		res.Err.Series = append(res.Err.Series, es)
	}
	return res, nil
}

// StationaryConfig parameterizes the sampling-distribution experiment of
// Figure 8: many fixed-length walks whose aggregated visit distribution
// is compared, node by node (ordered by degree), with the theoretical
// stationary distribution.
type StationaryConfig struct {
	// ID and Title label the output figure; the ID names the seed
	// stream.
	ID, Title string
	// Graph is the dataset.
	Graph *graph.Graph
	// Factories are the algorithms to compare.
	Factories []core.Factory
	// Walks is the number of independent walk instances (paper: 100).
	Walks int
	// StepsPerWalk is the walk length in transitions (paper: 10000).
	StepsPerWalk int
	// Seed derives all per-walk seeds (through the engine's mixer).
	Seed int64
	// Workers bounds concurrent walk execution (0 = GOMAXPROCS).
	Workers int
	// Ctx, when non-nil, cancels the experiment early: the engine stops
	// dispatching trials and the runner returns the cancellation cause.
	Ctx context.Context
}

// StationaryFigure runs the Figure 8 experiment. The returned figure has
// one series per algorithm plus the "Theoretical" π, with X the node
// rank when nodes are sorted by ascending degree. Walks run on the
// worker-pool engine, each with a private simulator.
func StationaryFigure(cfg StationaryConfig) (*Figure, error) {
	if cfg.Walks < 1 || cfg.StepsPerWalk < 1 {
		return nil, errors.New("experiment: Walks and StepsPerWalk must be >= 1")
	}
	n := cfg.Graph.NumNodes()
	order := nodesByDegree(cfg.Graph)
	theo := cfg.Graph.TheoreticalStationary()
	fig := &Figure{
		ID:     cfg.ID,
		Title:  cfg.Title,
		XLabel: "node_rank_by_degree",
		YLabel: "probability",
	}
	theoSeries := Series{Name: "Theoretical"}
	for rank, v := range order {
		theoSeries.X = append(theoSeries.X, float64(rank))
		theoSeries.Y = append(theoSeries.Y, theo[v])
	}
	fig.Series = append(fig.Series, theoSeries)
	eng := engine.New(engine.Options{Workers: cfg.Workers})
	stream := engine.StreamID("stationary", cfg.ID)
	for _, f := range cfg.Factories {
		// Each walk fills its own counter; the merge (in walk order,
		// though integer sums commute anyway) is deterministic for any
		// worker count.
		walkCounts := make([][]float64, cfg.Walks)
		err := eng.Each(ctxOf(cfg.Ctx), cfg.Walks, func(_ context.Context, w int) error {
			rng := rand.New(rand.NewSource(engine.TrialSeed(cfg.Seed, stream, w)))
			start, err := engine.RandomStart(cfg.Graph, rng)
			if err != nil {
				return err
			}
			sim := access.NewSimulator(cfg.Graph)
			walker := f.New(sim, start, rng)
			vc := stats.NewVisitCounter(n)
			for s := 0; s < cfg.StepsPerWalk; s++ {
				v, err := walker.Step()
				if err != nil {
					return fmt.Errorf("experiment: %s walk %d step %d: %w", f.Name, w, s, err)
				}
				vc.Visit(v)
			}
			walkCounts[w] = vc.Counts()
			return nil
		})
		if err != nil {
			return nil, err
		}
		dist := make([]float64, n)
		total := 0.0
		for _, counts := range walkCounts {
			for i, c := range counts {
				dist[i] += c
				total += c
			}
		}
		if total > 0 {
			for i := range dist {
				dist[i] /= total
			}
		}
		s := Series{Name: f.Name}
		for rank, v := range order {
			s.X = append(s.X, float64(rank))
			s.Y = append(s.Y, dist[v])
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// StationaryDeviation summarizes a StationaryFigure series: the ℓ2
// distance between an algorithm's empirical distribution and the
// theoretical one. It lets tests and benches assert Figure 8's "all
// three converge to the same distribution" numerically.
func StationaryDeviation(fig *Figure, name string) (float64, error) {
	theo := fig.SeriesByName("Theoretical")
	alg := fig.SeriesByName(name)
	if theo == nil || alg == nil {
		return 0, fmt.Errorf("experiment: series %q or Theoretical missing", name)
	}
	return stats.L2Distance(alg.Y, theo.Y)
}

// nodesByDegree returns node IDs sorted by ascending degree (ties by
// ID), the x-ordering of Figure 8.
func nodesByDegree(g *graph.Graph) []graph.Node {
	order := make([]graph.Node, g.NumNodes())
	for i := range order {
		order[i] = graph.Node(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		da, db := g.Degree(order[a]), g.Degree(order[b])
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	return order
}

// SizeSweepConfig parameterizes Figure 11: bias measures as a function
// of graph size for a family of synthetic graphs.
type SizeSweepConfig struct {
	// IDPrefix and Title label the output figures.
	IDPrefix, Title string
	// Sizes are the graph sizes to sweep (paper: barbell 20..56).
	Sizes []int
	// Make builds the graph for a given size.
	Make func(size int) *graph.Graph
	// BudgetFor returns the query budget used at a given size (the
	// paper holds the budget regime proportional to the graph).
	BudgetFor func(size int) int
	// Factories are the algorithms to compare.
	Factories []core.Factory
	// Attr is the measure attribute for the error sub-figure.
	Attr string
	// Trials is the number of walks per algorithm per size.
	Trials int
	// Seed derives all per-trial seeds; each size runs in its own seed
	// stream.
	Seed int64
	// Cost selects the budget metering.
	Cost CostModel
	// Workers bounds concurrent trial execution (0 = GOMAXPROCS).
	Workers int
	// Ctx, when non-nil, cancels the experiment early: the engine stops
	// dispatching trials and the runner returns the cancellation cause.
	Ctx context.Context
}

// SizeSweepFigures runs the Figure 11 experiment: for each graph size it
// measures symmetric KL, ℓ2 and estimation error at the configured
// budget, producing three figures with graph size on the X axis.
func SizeSweepFigures(cfg SizeSweepConfig) (*DistanceResult, error) {
	if cfg.Trials < 1 {
		return nil, errors.New("experiment: Trials must be >= 1")
	}
	out := &DistanceResult{
		KL:  &Figure{ID: cfg.IDPrefix + "-kl", Title: cfg.Title + " — symmetric KL-divergence", XLabel: "graph_size", YLabel: "kl_divergence"},
		L2:  &Figure{ID: cfg.IDPrefix + "-l2", Title: cfg.Title + " — l2 distance", XLabel: "graph_size", YLabel: "l2_distance"},
		Err: &Figure{ID: cfg.IDPrefix + "-err", Title: cfg.Title + " — estimation error", XLabel: "graph_size", YLabel: "relative_error"},
	}
	type acc struct{ kl, l2, er Series }
	accs := make(map[string]*acc)
	for _, f := range cfg.Factories {
		accs[f.Name] = &acc{
			kl: Series{Name: f.Name},
			l2: Series{Name: f.Name},
			er: Series{Name: f.Name},
		}
	}
	for _, size := range cfg.Sizes {
		g := cfg.Make(size)
		budget := cfg.BudgetFor(size)
		dres, err := DistanceFigures(DistanceConfig{
			// The size-specific prefix gives each size its own seed
			// stream under the shared master seed.
			IDPrefix:  fmt.Sprintf("%s-size-%d", cfg.IDPrefix, size),
			Title:     "tmp",
			Graph:     g,
			Attr:      cfg.Attr,
			Factories: cfg.Factories,
			Budgets:   []int{budget},
			Trials:    cfg.Trials,
			Seed:      cfg.Seed,
			Cost:      cfg.Cost,
			Workers:   cfg.Workers,
			Ctx:       cfg.Ctx,
		})
		if err != nil {
			return nil, fmt.Errorf("experiment: size %d: %w", size, err)
		}
		for _, f := range cfg.Factories {
			a := accs[f.Name]
			a.kl.X = append(a.kl.X, float64(size))
			a.kl.Y = append(a.kl.Y, dres.KL.SeriesByName(f.Name).Y[0])
			a.l2.X = append(a.l2.X, float64(size))
			a.l2.Y = append(a.l2.Y, dres.L2.SeriesByName(f.Name).Y[0])
			a.er.X = append(a.er.X, float64(size))
			a.er.Y = append(a.er.Y, dres.Err.SeriesByName(f.Name).Y[0])
		}
	}
	for _, f := range cfg.Factories {
		a := accs[f.Name]
		out.KL.Series = append(out.KL.Series, a.kl)
		out.L2.Series = append(out.L2.Series, a.l2)
		out.Err.Series = append(out.Err.Series, a.er)
	}
	return out, nil
}

// EscapeConfig parameterizes the Theorem 3 validation: the probability
// that a walk at the bridge node of a barbell graph crosses to the other
// clique.
type EscapeConfig struct {
	// CliqueSize is |G1| (the barbell is Barbell(CliqueSize)).
	CliqueSize int
	// Steps is the number of transitions simulated for the hazard
	// measurement.
	Steps int
	// Episodes is the number of first-escape episodes simulated per
	// algorithm.
	Episodes int
	// Seed seeds the walks.
	Seed int64
	// Workers bounds concurrent episode execution (0 = GOMAXPROCS).
	Workers int
	// Ctx, when non-nil, cancels the experiment early: the engine stops
	// dispatching trials and the runner returns the cancellation cause.
	Ctx context.Context
}

// EscapeResult reports the empirical Theorem 3 quantities.
type EscapeResult struct {
	// CliqueSize is |G1|.
	CliqueSize int
	// PSRW is the empirical per-visit probability that SRW follows the
	// bridging edge when at the bridge node (theory: 1/|G1|).
	PSRW float64
	// PCNRW is Theorem 3's P_CNRW, Eq. (38): the average over
	// circulation fill levels i of the measured escape hazard
	// P(u→w | s→u, |b(s,u)|=i, w∉b(s,u)); each hazard is 1/(|G1|−i) in
	// theory, making P_CNRW ≈ H_{|G1|}/(|G1|−1).
	PCNRW float64
	// Ratio is PCNRW/PSRW.
	Ratio float64
	// Bound is Theorem 3's lower bound |G1|·ln|G1|/(|G1|−1) on Ratio.
	Bound float64
	// HazardByFill[i] is the measured escape probability at circulation
	// fill level i (NaN-free: levels never observed hold zero and are
	// excluded from PCNRW's average).
	HazardByFill []float64
	// OppsByFill[i] counts the escape opportunities observed at fill
	// level i.
	OppsByFill []int
	// MeanEscapeStepsSRW and MeanEscapeStepsCNRW are the mean numbers
	// of transitions until a walk started inside G1 first crosses to
	// G2 — the transient "burn-out of the trap" the theorem is about.
	MeanEscapeStepsSRW, MeanEscapeStepsCNRW float64
}

// BarbellEscape validates Theorem 3 empirically on a barbell graph.
//
// It measures two things. First, a long CNRW run records, at every
// arrival at the bridge node u via an incoming edge s→u whose
// circulation does not yet contain the bridge target w, the fill level
// i = |b(s,u)| and whether the walk then followed the bridge; the
// per-level hazards estimate 1/(|G1|−i) and their average over levels is
// Theorem 3's P_CNRW (Eq. 38), to be compared against SRW's measured
// per-visit crossing probability 1/|G1|. Second, it measures the mean
// time to first escape from G1 for both algorithms over independent
// episodes (fanned out on the engine), the operational consequence of
// the theorem.
func BarbellEscape(cfg EscapeConfig) (*EscapeResult, error) {
	if cfg.CliqueSize < 2 {
		return nil, errors.New("experiment: CliqueSize must be >= 2")
	}
	if cfg.Episodes < 1 {
		cfg.Episodes = 1
	}
	k := cfg.CliqueSize
	g := graph.Barbell(k)
	bridgeU := graph.Node(k - 1) // in G1
	bridgeW := graph.Node(k)     // in G2

	// --- SRW per-visit crossing probability ---
	rng := rand.New(rand.NewSource(cfg.Seed))
	sim := access.NewSimulator(g)
	srw := core.NewSRW(sim, 0, rng)
	visits, crossings := 0, 0
	prev := srw.Current()
	for s := 0; s < cfg.Steps; s++ {
		v, err := srw.Step()
		if err != nil {
			return nil, err
		}
		if prev == bridgeU {
			visits++
			if v == bridgeW {
				crossings++
			}
		}
		prev = v
	}
	pSRW := 0.0
	if visits > 0 {
		pSRW = float64(crossings) / float64(visits)
	}

	// --- CNRW hazard by circulation fill level ---
	rng = rand.New(rand.NewSource(cfg.Seed + 1))
	sim = access.NewSimulator(g)
	cnrw := core.NewCNRW(sim, 0, rng)
	opps := make([]int, k)
	hits := make([]int, k)
	var p2, p1 graph.Node = -1, cnrw.Current()
	for s := 0; s < cfg.Steps; s++ {
		// Before stepping: if the walk sits on u and came from s within
		// G1, inspect the circulation of (p2 → u).
		atOpportunity := false
		fill := 0
		if p1 == bridgeU && p2 >= 0 && p2 != bridgeW {
			f, hasW := cnrw.CirculationState(p2, p1, bridgeW, g.Neighbors(p1))
			if !hasW && f < k {
				atOpportunity = true
				fill = f
			}
		}
		v, err := cnrw.Step()
		if err != nil {
			return nil, err
		}
		if atOpportunity {
			opps[fill]++
			if v == bridgeW {
				hits[fill]++
			}
		}
		p2, p1 = p1, v
	}
	hazard := make([]float64, k)
	sumHazard := 0.0
	levels := 0
	for i := 0; i < k; i++ {
		if opps[i] > 0 {
			hazard[i] = float64(hits[i]) / float64(opps[i])
			sumHazard += hazard[i]
			levels++
		}
	}
	pCNRW := 0.0
	if levels > 0 {
		// Theorem 3 Eq. (38): average the per-level hazards over the
		// |G1|-1 fill levels (unobserved deep levels contribute their
		// theoretical hazard so sparse sampling does not bias the
		// average downward).
		for i := 0; i < k; i++ {
			if opps[i] == 0 {
				sumHazard += 1 / float64(k-i)
			}
		}
		pCNRW = sumHazard / float64(k-1)
	}

	// --- first-escape episodes ---
	eng := engine.New(engine.Options{Workers: cfg.Workers})
	// One stream for both algorithms: episode e of SRW and CNRW shares
	// its seed (hence its start node), the paired design that keeps the
	// escape-time comparison's variance down.
	episodeStream := engine.StreamID("escape-episodes")
	meanEscape := func(mk func(c access.Client, s graph.Node, r *rand.Rand) core.Walker) (float64, error) {
		perEpisode := make([]float64, cfg.Episodes)
		err := eng.Each(ctxOf(cfg.Ctx), cfg.Episodes, func(_ context.Context, e int) error {
			erng := rand.New(rand.NewSource(engine.TrialSeed(cfg.Seed, episodeStream, e)))
			esim := access.NewSimulator(g)
			start := graph.Node(erng.Intn(k)) // uniform in G1
			w := mk(esim, start, erng)
			steps := 0
			for {
				v, err := w.Step()
				if err != nil {
					return err
				}
				steps++
				if int(v) >= k { // crossed into G2
					break
				}
				if steps > 100*k*k {
					break // safety valve; contributes the cap
				}
			}
			perEpisode[e] = float64(steps)
			return nil
		})
		if err != nil {
			return 0, err
		}
		// Sum in episode order so the mean is bit-identical for any
		// worker count.
		total := 0.0
		for _, s := range perEpisode {
			total += s
		}
		return total / float64(cfg.Episodes), nil
	}
	escSRW, err := meanEscape(func(c access.Client, s graph.Node, r *rand.Rand) core.Walker {
		return core.NewSRW(c, s, r)
	})
	if err != nil {
		return nil, err
	}
	escCNRW, err := meanEscape(func(c access.Client, s graph.Node, r *rand.Rand) core.Walker {
		return core.NewCNRW(c, s, r)
	})
	if err != nil {
		return nil, err
	}

	res := &EscapeResult{
		CliqueSize:          k,
		PSRW:                pSRW,
		PCNRW:               pCNRW,
		Bound:               float64(k) / float64(k-1) * math.Log(float64(k)),
		HazardByFill:        hazard,
		OppsByFill:          opps,
		MeanEscapeStepsSRW:  escSRW,
		MeanEscapeStepsCNRW: escCNRW,
	}
	if pSRW > 0 {
		res.Ratio = pCNRW / pSRW
	}
	return res, nil
}

// DatasetTable computes Table 1 (dataset summary statistics) for the
// given graphs.
func DatasetTable(graphs []*graph.Graph) *Table {
	t := &Table{
		ID:     "table1",
		Title:  "Summary of the datasets",
		Header: []string{"dataset", "nodes", "edges", "avg_degree", "avg_clustering", "triangles"},
	}
	for _, g := range graphs {
		s := g.Summarize()
		t.Rows = append(t.Rows, []string{
			s.Name,
			fmt.Sprintf("%d", s.Nodes),
			fmt.Sprintf("%d", s.Edges),
			fmt.Sprintf("%.2f", s.AvgDegree),
			fmt.Sprintf("%.2f", s.AvgClustering),
			fmt.Sprintf("%d", s.Triangles),
		})
	}
	return t
}
