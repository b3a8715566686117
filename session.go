package histwalk

// Re-exports of the declarative sampling-run API (internal/session):
// one Spec describing the data source, walker, estimators, budget and
// chain fan-out, executed by Run in one shot on the parallel engine or
// incrementally through a Session. This is the recommended entry point
// for everything the manual Simulator/Walker/Estimator style used to
// require hand-written loops for.

import (
	"context"

	"histwalk/internal/estimate"
	"histwalk/internal/session"
)

// Declarative sampling-run API types.
type (
	// Spec declares one sampling run: data source (Graph or Client),
	// walker, estimators, query budget, burn-in, thinning, confidence
	// level, chains, workers and master seed.
	Spec = session.Spec
	// EstimatorSpec declares one aggregate to estimate during a run.
	EstimatorSpec = session.EstimatorSpec
	// Aggregate identifies an EstimatorSpec's aggregate kind.
	Aggregate = session.Aggregate
	// DesignChoice selects the estimator correction of a Spec.
	DesignChoice = session.DesignChoice
	// CachePolicy selects how a Spec's chains' query caches relate:
	// isolated per-chain caches or one shared cross-chain crawl cache.
	CachePolicy = session.CachePolicy
	// SteppingMode names a Spec's chain-advancement mode; per-chain
	// stepping is the only one.
	SteppingMode = session.SteppingMode
	// Result is the outcome of a sampling run: pooled and per-chain
	// estimates with confidence intervals, plus exact query-cost
	// accounting.
	Result = session.Result
	// Estimate is one aggregate's pooled outcome within a Result.
	Estimate = session.Estimate
	// ChainResult is one chain's accounting within a Result.
	ChainResult = session.ChainResult
	// Session advances a Spec's chains one transition at a time for
	// online consumers; its final Result equals Run's.
	Session = session.Session
	// Update reports one Session transition.
	Update = session.Update
)

// Aggregate kinds for EstimatorSpec.
const (
	// AggMean estimates the population mean of the measure attribute.
	AggMean = session.AggMean
	// AggAvgDegree estimates the population average degree.
	AggAvgDegree = session.AggAvgDegree
	// AggProportion estimates the fraction of nodes whose measured
	// value satisfies the spec's Predicate.
	AggProportion = session.AggProportion
)

// Cache policies for Spec.Cache.
const (
	// CacheIsolated gives every chain its own private cache and query
	// counter (the default): the network cost is the sum of the
	// chains' costs.
	CacheIsolated = session.CacheIsolated
	// CacheShared accounts all chains as one fleet sharing a crawl
	// cache, for Graph, Store and Transport sources alike:
	// trajectories, budgets and estimates stay bit-identical to
	// CacheIsolated, while Result additionally reports the strictly
	// smaller global network cost and the cross-chain hit rate.
	CacheShared = session.CacheShared
)

// Stepping modes for Spec.Stepping.
const (
	// SteppingPerChain advances each chain independently (the default
	// and only mode).
	SteppingPerChain = session.SteppingPerChain
	// SteppingBatched is a deprecated alias of SteppingPerChain: specs
	// that name it validate and return the per-chain Result.
	SteppingBatched = session.SteppingBatched
)

// Design choices for Spec.Design.
const (
	// DesignAuto derives the correction from the walker's name.
	DesignAuto = session.DesignAuto
	// DesignDegreeProportional forces π(v) ∝ k_v reweighting.
	DesignDegreeProportional = session.DesignDegreeProportional
	// DesignUniform forces the plain sample mean (MHRW-style).
	DesignUniform = session.DesignUniform
)

// Run executes a validated Spec: chains fan out over the deterministic
// worker-pool engine, and the merged Result is bit-identical for every
// Workers setting.
func Run(ctx context.Context, spec Spec) (*Result, error) { return session.Run(ctx, spec) }

// NewSession validates a Spec and prepares its chains for incremental
// execution via Next.
func NewSession(spec Spec) (*Session, error) { return session.NewSession(spec) }

// IntervalFromComponents pools batch-means components (e.g. from
// MeanCI.Components across independent chains) into one confidence
// interval around a point estimate.
var IntervalFromComponents = estimate.IntervalFromComponents
