package engine

// One walk trial: the unit of work the pool schedules. This is the
// paper's §6 measurement protocol — a seeded walk snapshotting its
// aggregate estimate at query-budget checkpoints — lifted out of the
// experiment package so that figures and ablations all execute trials
// through the same engine.

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"histwalk/internal/access"
	"histwalk/internal/core"
	"histwalk/internal/estimate"
	"histwalk/internal/graph"
)

// CostModel selects how a walk's spend is metered against the budget.
type CostModel int

const (
	// CostUnique counts unique neighborhood queries: repeat visits are
	// served from the crawler's cache for free. This is the paper's
	// §2.3 definition and the default.
	CostUnique CostModel = iota
	// CostSteps counts every transition as one query (no cache). The
	// paper's small-graph figures (7, 10, 11) use budgets exceeding the
	// graph's node count, which is only meaningful under this model, so
	// the corresponding runners select it.
	CostSteps
)

// String implements fmt.Stringer.
func (m CostModel) String() string {
	switch m {
	case CostUnique:
		return "unique-queries"
	case CostSteps:
		return "steps"
	default:
		return fmt.Sprintf("CostModel(%d)", int(m))
	}
}

// Job specifies a batch of independent walk trials: the dataset, the
// algorithm, the measurement protocol and the seed derivation. Jobs are
// value types; every trial builds its private Simulator and RNG from
// the shared spec, so a Job may be submitted concurrently.
type Job struct {
	// Graph is the dataset. Trials only read it.
	Graph *graph.Graph
	// Factory builds one fresh walker per trial.
	Factory core.Factory
	// Attr is the measure attribute ("degree" or "" uses node degree).
	Attr string
	// Budgets are the query-cost checkpoints (ascending).
	Budgets []int
	// Trials is the number of independent walks to run.
	Trials int
	// Seed is the master seed; trial t runs with
	// TrialSeed(Seed, Stream, t).
	Seed int64
	// Stream separates the seed streams of experiments sharing a master
	// seed (use StreamID of the figure ID). Algorithms that must share
	// start nodes submit Jobs with equal Stream.
	Stream uint64
	// RecordPath retains each trial's full visit sequence.
	RecordPath bool
	// Cost selects the budget metering (default CostUnique).
	Cost CostModel
}

// validate checks the batch-level invariants.
func (j Job) validate() error {
	if j.Graph == nil {
		return errors.New("engine: nil graph")
	}
	if j.Factory.New == nil {
		return errors.New("engine: factory without constructor")
	}
	if j.Trials < 1 {
		return errors.New("engine: Trials must be >= 1")
	}
	return validateBudgets(j.Budgets)
}

func validateBudgets(budgets []int) error {
	if len(budgets) == 0 {
		return errors.New("engine: no budgets")
	}
	for i := 1; i < len(budgets); i++ {
		if budgets[i] <= budgets[i-1] {
			return fmt.Errorf("engine: budgets must be ascending, got %v", budgets)
		}
	}
	return nil
}

// TrialResult captures one walk trial with snapshots taken each time the
// query cost crossed the next budget checkpoint.
type TrialResult struct {
	// Budgets are the query-cost checkpoints (ascending).
	Budgets []int
	// Estimates[i] is the aggregate estimate when the walk had spent
	// Budgets[i] unique queries.
	Estimates []float64
	// FinalNodes[i] is the node the walk occupied at that checkpoint
	// (the "sample" a budget-c crawler would return).
	FinalNodes []graph.Node
	// Steps is the total number of transitions performed.
	Steps int
	// QueryCost is the total unique queries spent.
	QueryCost int
	// Path is the full visit sequence (only when path recording was
	// requested).
	Path []graph.Node
	// CrossSteps[i] is the number of steps taken when Budgets[i] was
	// reached (only when path recording was requested).
	CrossSteps []int
}

// DesignFor returns the estimator design matching a walker: MHRW targets
// the uniform distribution, every other algorithm in this repository is
// degree-proportional.
func DesignFor(factoryName string) estimate.Design {
	if strings.HasPrefix(factoryName, "MHRW") {
		return estimate.Uniform
	}
	return estimate.DegreeProportional
}

// maxStepsFor caps the walk length so trials terminate even when the
// budget exceeds the number of reachable unique nodes (on a small graph
// the cache eventually serves everything and query cost stops growing).
func maxStepsFor(budgets []int) int {
	max := budgets[len(budgets)-1]
	steps := 200 * max
	if steps < 100000 {
		steps = 100000
	}
	return steps
}

// RunTrial performs one seeded walk of job.Factory over job.Graph,
// measuring job.Attr and snapshotting at each budget. The start node is
// drawn uniformly from non-isolated nodes using the trial RNG, exactly
// once per trial, so all algorithms compared under the same seed share
// the start. The trial owns its Simulator: nothing it touches is shared.
//
// The step loop rides the walkers' zero-allocation hot path (per-walker
// scratch buffers over access.Client.NeighborsAppend; see internal/core)
// and Measure reads the graph directly, so a trial's steady-state
// allocations are only the snapshot rows and the optional recorded path
// — which is what lets the pool's workers scale with cores instead of
// fighting the allocator (BENCH_micro.json records the figure's cost).
func RunTrial(job Job, seed int64) (*TrialResult, error) {
	if err := validateBudgets(job.Budgets); err != nil {
		return nil, err
	}
	g, f, budgets := job.Graph, job.Factory, job.Budgets
	rng := rand.New(rand.NewSource(seed))
	start, err := RandomStart(g, rng)
	if err != nil {
		return nil, err
	}
	sim := access.NewSimulator(g)
	walker := f.New(sim, start, rng)
	// Experiment rows are labeled with f.Name; a factory that had to
	// substitute a fallback walker (core.Degraded) would silently
	// mislabel the whole series, so refuse to run the trial instead.
	if d, ok := walker.(*core.Degraded); ok {
		return nil, fmt.Errorf("engine: %s trial: walker construction degraded to %s; refusing to run mislabeled trial", f.Name, d.Unwrap().Name())
	}
	design := DesignFor(f.Name)
	est := estimate.NewMean(design)

	res := &TrialResult{
		Budgets:    append([]int(nil), budgets...),
		Estimates:  make([]float64, len(budgets)),
		FinalNodes: make([]graph.Node, len(budgets)),
	}
	if job.RecordPath {
		res.CrossSteps = make([]int, len(budgets))
	}
	next := 0
	maxSteps := maxStepsFor(budgets)
	if job.Cost == CostSteps {
		maxSteps = budgets[len(budgets)-1]
	}
	lastBudget := budgets[len(budgets)-1]
	for step := 0; step < maxSteps && next < len(budgets); step++ {
		v, err := walker.Step()
		if err != nil {
			return nil, fmt.Errorf("engine: %s step %d: %w", f.Name, step, err)
		}
		val, deg, err := Measure(g, job.Attr, v)
		if err != nil {
			return nil, err
		}
		if err := est.Add(val, deg); err != nil {
			return nil, err
		}
		if job.RecordPath {
			res.Path = append(res.Path, v)
		}
		spent := sim.QueryCost()
		if job.Cost == CostSteps {
			spent = step + 1
		}
		for next < len(budgets) && spent >= budgets[next] {
			e, err := est.Estimate()
			if err != nil {
				return nil, err
			}
			res.Estimates[next] = e
			res.FinalNodes[next] = v
			if job.RecordPath {
				res.CrossSteps[next] = step + 1
			}
			next++
		}
		if spent >= lastBudget {
			break
		}
		// Unique queries can never exceed the node count: once the whole
		// graph is cached, larger budgets are unreachable — freeze.
		if job.Cost == CostUnique && sim.QueryCost() >= g.NumNodes() {
			break
		}
	}
	// If the cache made further budgets unreachable (walk saturated the
	// reachable node set), freeze remaining checkpoints at the final
	// state: a real crawler would likewise stop paying.
	for ; next < len(budgets); next++ {
		e, err := est.Estimate()
		if err != nil {
			return nil, err
		}
		res.Estimates[next] = e
		res.FinalNodes[next] = walker.Current()
		if job.RecordPath {
			res.CrossSteps[next] = len(res.Path)
		}
	}
	res.Steps = walker.Steps()
	res.QueryCost = sim.QueryCost()
	return res, nil
}

// GraphData is the slice of the graph surface the trial helpers need.
// It is satisfied by *graph.Graph and by every graphstore.Store backend
// (the engine stays storage-agnostic without importing the storage
// layer); Measure and RandomStart accept any of them.
type GraphData interface {
	Name() string
	NumNodes() int
	Degree(v graph.Node) int
	AttrValue(name string, v graph.Node) (float64, bool)
}

// Measure returns the value of the measure function and the degree of
// node v. attr == "degree" uses the topological degree so that datasets
// need not materialize a degree attribute.
func Measure(g GraphData, attr string, v graph.Node) (float64, int, error) {
	deg := g.Degree(v)
	if attr == "degree" || attr == "" {
		return float64(deg), deg, nil
	}
	x, ok := g.AttrValue(attr, v)
	if !ok {
		return 0, 0, fmt.Errorf("engine: graph %q lacks attribute %q", g.Name(), attr)
	}
	return x, deg, nil
}

// RandomStart draws a uniform non-isolated start node.
func RandomStart(g GraphData, rng *rand.Rand) (graph.Node, error) {
	n := g.NumNodes()
	if n == 0 {
		return 0, errors.New("engine: empty graph")
	}
	for tries := 0; tries < 10*n+100; tries++ {
		v := graph.Node(rng.Intn(n))
		if g.Degree(v) > 0 {
			return v, nil
		}
	}
	return 0, errors.New("engine: no node with degree >= 1")
}
