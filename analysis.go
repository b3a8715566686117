package histwalk

// Re-exports of the analysis extensions: exact Markov-chain analysis
// (internal/markov), MCMC convergence diagnostics
// (internal/diagnostics) and the frontier-sampling baselines.

import (
	"histwalk/internal/core"
	"histwalk/internal/diagnostics"
	"histwalk/internal/experiment"
	"histwalk/internal/linalg"
	"histwalk/internal/markov"
)

// Exact Markov-chain analysis types.
type (
	// Matrix is a dense row-major matrix (exact-analysis kernel).
	Matrix = linalg.Matrix
	// EdgeState is one directed-edge state of the NB-SRW chain.
	EdgeState = markov.EdgeState
)

// Exact Markov-chain analysis functions (small graphs only: the
// matrices are dense).
var (
	// NewMatrix returns a zero rows×cols dense matrix.
	NewMatrix = linalg.NewMatrix
	// SRWMatrix returns the SRW transition matrix of a graph.
	SRWMatrix = markov.SRWMatrix
	// MHRWMatrix returns the MHRW transition matrix of a graph.
	MHRWMatrix = markov.MHRWMatrix
	// NBSRWEdgeChain returns NB-SRW's directed-edge transition matrix.
	NBSRWEdgeChain = markov.NBSRWEdgeChain
	// NodeMarginal folds an edge-state distribution to head nodes.
	NodeMarginal = markov.NodeMarginal
	// ExactStationary solves πP = π exactly.
	ExactStationary = markov.ExactStationary
	// AsymptoticVariance computes Definition 3's variance exactly via
	// the fundamental matrix.
	AsymptoticVariance = markov.AsymptoticVariance
	// SpectralGap returns 1−|λ₂| of a reversible chain.
	SpectralGap = markov.SpectralGap
	// MixingTimeBound bounds the ε-mixing time from the gap.
	MixingTimeBound = markov.MixingTimeBound
	// DistributionAfter advances a start distribution t steps.
	DistributionAfter = markov.DistributionAfter
)

// Convergence diagnostics for walk sample paths.
var (
	// Geweke returns the Geweke burn-in z-score of a chain.
	Geweke = diagnostics.Geweke
	// GelmanRubin returns R̂ across parallel chains.
	GelmanRubin = diagnostics.GelmanRubin
	// EffectiveSampleSize estimates the worth of an autocorrelated
	// chain in independent samples.
	EffectiveSampleSize = diagnostics.EffectiveSampleSize
	// AutoBurnIn picks a burn-in length via repeated Geweke tests.
	AutoBurnIn = diagnostics.AutoBurnIn
	// Autocorrelation returns the lag-k sample autocorrelation.
	Autocorrelation = diagnostics.Autocorrelation
)

// Frontier-sampling baselines (Ribeiro & Towsley, the paper's [17]).
type Frontier = core.Frontier

var (
	// NewFrontier returns an m-walker frontier sampler.
	NewFrontier = core.NewFrontier
	// NewFrontierCNRW is NewFrontier with per-walker CNRW circulation.
	NewFrontierCNRW = core.NewFrontierCNRW
	// FrontierFactory builds frontier samplers for experiments.
	FrontierFactory = core.FrontierFactory
	// FrontierCNRWFactory builds circulated frontier samplers.
	FrontierCNRWFactory = core.FrontierCNRWFactory
)

// Theorem 2/4 exact-reference validation.
type (
	// Theorem2Config parameterizes the exact-variance validation.
	Theorem2Config = experiment.Theorem2Config
	// Theorem2Row is one topology's results.
	Theorem2Row = experiment.Theorem2Row
)

var (
	// Theorem2Results runs the exact-vs-empirical variance validation.
	Theorem2Results = experiment.Theorem2Results
	// Theorem2Table renders the validation as a table.
	Theorem2Table = experiment.Theorem2Table
)
