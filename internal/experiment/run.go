package experiment

// The estimation and bias figures run their trials as session chains:
// trial t of a series is chain t of one session.Spec whose only
// estimator is the figure's attribute, stepped by session.RunChain —
// the same loop histwalkd serves — on the engine's worker pool, and a
// trial's estimate is the point that chain serves. This file also
// hosts the figure-side helpers that are about ground truth rather
// than walk execution.

import (
	"context"
	"errors"
	"fmt"

	"histwalk/internal/core"
	"histwalk/internal/engine"
	"histwalk/internal/estimate"
	"histwalk/internal/graph"
	"histwalk/internal/session"
)

// ctxOf returns ctx, or context.Background for configs that did not set
// one — experiment configs carry an optional Ctx so cmd/repro can stop
// every trial loop on SIGINT.
func ctxOf(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// CostModel selects how a walk's spend is metered against the budget.
// See engine.CostModel.
type CostModel = engine.CostModel

const (
	// CostUnique counts unique neighborhood queries (the paper's §2.3
	// definition and the default).
	CostUnique = engine.CostUnique
	// CostSteps counts every transition as one query (no cache).
	CostSteps = engine.CostSteps
)

// snapshot is one trial's state when its spend first reached a budget:
// the aggregate estimate, and the node the walk occupied — the sample a
// budget-c crawler would return.
type snapshot struct {
	estimate float64
	node     graph.Node
}

// trialSpec returns the session spec whose chain t is trial t of a
// series: trials walks of f over g under (seed, stream), each chain
// budgeted to the last of budgets (ascending) and estimating the mean
// of attr ("degree" or "" for the average degree) as its only
// estimator. Algorithms that share the stream share every trial's
// start node.
func trialSpec(g *graph.Graph, f core.Factory, attr string, budgets []int, trials int, seed int64, stream uint64, cost CostModel) (session.Spec, error) {
	if len(budgets) == 0 {
		return session.Spec{}, errors.New("experiment: no budgets")
	}
	for i := 1; i < len(budgets); i++ {
		if budgets[i] <= budgets[i-1] {
			return session.Spec{}, fmt.Errorf("experiment: budgets must be ascending, got %v", budgets)
		}
	}
	last := budgets[len(budgets)-1]
	// The step cap ends walks whose last budget is unreachable; under
	// CostSteps the budget is the cap.
	maxSteps := last
	if cost == CostUnique {
		maxSteps = max(200*last, 100000)
	}
	est := session.EstimatorSpec{Kind: session.AggMean, Attr: attr}
	if attr == "degree" || attr == "" {
		est = session.EstimatorSpec{Kind: session.AggAvgDegree}
	}
	return session.Spec{
		Graph:      g,
		Walker:     f,
		Estimators: []session.EstimatorSpec{est},
		Budget:     last,
		Cost:       cost,
		MaxSteps:   maxSteps,
		Chains:     trials,
		Seed:       seed,
		Stream:     stream,
	}, nil
}

// runTrials runs the trials of trialSpec and returns out[t][i], trial
// t's snapshot at budgets[i]: the chain's served estimate of attr and
// its node when its spend first reached budgets[i]. The snapshots are
// identical for any worker count. A walk that stops paying before the
// last budget (its unique queries covered the graph, or it reached the
// step cap) freezes the remaining budgets at its final state, as a
// real crawler would; a walk that kept no sample has no estimate to
// freeze, and fails with estimate.ErrNoSamples.
func runTrials(ctx context.Context, workers int, g *graph.Graph, f core.Factory, attr string,
	budgets []int, trials int, seed int64, stream uint64, cost CostModel) ([][]snapshot, error) {
	spec, err := trialSpec(g, f, attr, budgets, trials, seed, stream, cost)
	if err != nil {
		return nil, err
	}
	out := make([][]snapshot, trials)
	err = engine.New(engine.Options{Workers: workers}).Each(ctx, trials, func(ctx context.Context, t int) error {
		snaps := make([]snapshot, 0, len(budgets))
		var last snapshot
		res, err := session.RunChain(ctx, spec, t, func(u session.Update, v session.ChainView) error {
			p, err := v.Point(0)
			if err != nil {
				return err
			}
			last = snapshot{p, u.Node}
			for len(snaps) < len(budgets) && u.Spent >= budgets[len(snaps)] {
				snaps = append(snaps, last)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if res.Samples == 0 {
			return estimate.ErrNoSamples
		}
		for len(snaps) < len(budgets) {
			snaps = append(snaps, last)
		}
		out[t] = snaps
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// groundTruth returns the exact population mean of the measure function.
func groundTruth(g *graph.Graph, attr string) (float64, error) {
	if attr == "degree" || attr == "" {
		return g.AvgDegree(), nil
	}
	m, ok := g.MeanAttr(attr)
	if !ok {
		return 0, fmt.Errorf("experiment: graph %q lacks attribute %q", g.Name(), attr)
	}
	return m, nil
}
