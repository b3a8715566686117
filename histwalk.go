// Package histwalk is a library for sampling online social networks
// through their restrictive neighborhood-query interfaces, implementing
// the history-aware random walks of
//
//	Zhuojie Zhou, Nan Zhang, Gautam Das:
//	"Leveraging History for Faster Sampling of Online Social Networks",
//	VLDB 2015 (arXiv:1505.00079).
//
// The package exposes:
//
//   - the two proposed samplers, CNRW (Circulated Neighbors Random
//     Walk) and GNRW (GroupBy Neighbors Random Walk), plus the SRW,
//     MHRW and NB-SRW baselines and the NB-CNRW extension — all behind
//     a single Walker interface;
//   - an undirected graph substrate with synthetic generators and
//     edge-list I/O;
//   - a simulated OSN access model that counts unique queries exactly
//     as the paper's query-cost metric does;
//   - unbiased estimators for population aggregates under
//     degree-proportional (SRW-family) and uniform (MHRW) sampling;
//   - a declarative sampling-run API (Spec, Run, Session): one entry
//     point that validates a run description — data source, walker,
//     estimators, budget, burn-in, chains, master seed — executes it on
//     the parallel engine, and returns pooled and per-chain estimates
//     with confidence intervals and exact query-cost accounting;
//   - a deterministic worker pool (Engine, with TrialSeed and
//     StreamID) that fans independent seeded tasks out over all cores
//     while keeping results bit-identical for any worker count;
//   - a sampling-job service (Manager, NewServiceHandler, cmd/histwalkd):
//     serialized specs (SpecJSON) submitted over an HTTP JSON API run
//     concurrently with bounded parallelism, stream per-chain progress
//     over SSE, and return Results bit-identical to a direct Run —
//     walkers and estimators resolve through the shared name registry
//     (WalkerByName, EstimatorByName);
//   - the full experiment harness that regenerates every table and
//     figure of the paper's evaluation; the estimation and bias figures
//     run each trial as a session chain, the loop Run serves, on the
//     engine (cmd/repro -workers selects the pool size).
//
// Quick start — describe the run, then execute it:
//
//	g := histwalk.BarabasiAlbert(10000, 5, rand.New(rand.NewSource(1)))
//	res, err := histwalk.Run(ctx, histwalk.Spec{
//	    Graph:  g,
//	    Walker: histwalk.CNRWFactory(),
//	    Budget: 500, // unique queries per chain (§2.3 cost metric)
//	    Chains: 4,   // independent crawlers on the parallel engine
//	    Seed:   1,
//	})
//	est := res.Estimates[0] // avg(degree) by default
//	// est.Point ≈ g.AvgDegree(), est.Interval is its 95% CI
//
// For online consumers, NewSession runs the same Spec one transition
// at a time (Next returns an Update per transition), and its final
// Result is identical to Run's. The pre-session manual style —
// NewSimulator + NewCNRW + estimator + hand-written budget loop — still
// compiles and works; new code should prefer Spec/Run.
//
// # Multi-chain crawling and the shared cache
//
// A Spec with Chains > 1 models a fleet of crawler accounts. By
// default (CacheIsolated) every chain has its own cache and pays its
// own unique queries — the network cost is the sum of the chains'
// costs. A real deployment with one local cache does better: once any
// chain has fetched a node's neighborhood, sibling chains read it for
// free. Setting Cache: CacheShared accounts the chains as such a fleet:
//
//	res, err := histwalk.Run(ctx, histwalk.Spec{
//	    Graph:  g,
//	    Walker: histwalk.CNRWFactory(),
//	    Budget: 500,
//	    Chains: 16,
//	    Cache:  histwalk.CacheShared,
//	    Seed:   1,
//	})
//	// res.TotalQueries  — sum of chain-local unique queries (budgets)
//	// res.GlobalQueries — network fetches actually paid; strictly less
//	//                     than TotalQueries whenever chains overlap
//	// res.CrossChainHitRate — share of would-be fetches the cache saved
//
// The two cost levels are deliberately distinct. Budgets stay
// per-chain: each chain's spend counts the queries *it* issued for
// nodes *it* had not seen, exactly as with isolated caches, so
// per-chain rate/budget semantics (Budgeted) are unchanged. The
// shared cache only changes who pays the network. Because cache state
// never alters the neighbor data a walker sees, every chain runs on
// its own client under either policy (a Simulator, or a PipeView in
// pipelined runs), and the shared ledger is derived when the Result is
// merged: the network pays once for each node any chain queried (the
// union of the chains' ledgers), and every
// other chain-locally-new query is a cross-chain hit. Chain
// trajectories, estimates and budget accounting are therefore
// bit-identical between CacheShared and CacheIsolated for any Workers
// value — switching the policy is purely an accounting decision,
// verified by the internal/session tests and the
// BenchmarkSharedVsIsolatedChains benchmark.
//
// The subpackages under internal/ hold the implementation; this package
// re-exports everything a downstream user needs.
package histwalk

import (
	"io"
	"math/rand"

	"histwalk/internal/access"
	"histwalk/internal/core"
	"histwalk/internal/engine"
	"histwalk/internal/estimate"
	"histwalk/internal/graph"
)

// Node identifies a vertex; nodes are dense integers in [0, NumNodes).
type Node = graph.Node

// Graph is an immutable simple undirected graph with per-node
// attributes. See Builder and the generator functions for construction.
type Graph = graph.Graph

// Builder incrementally accumulates edges and produces a Graph.
type Builder = graph.Builder

// Digraph is an immutable simple directed graph; cast it to the
// undirected access model with Mutual (the paper's §6.1 conversion) or
// Either (§2.1's alternative).
type Digraph = graph.Digraph

// DigraphBuilder incrementally accumulates arcs and produces a Digraph.
type DigraphBuilder = graph.DigraphBuilder

// NewDigraphBuilder returns a DigraphBuilder pre-sized for n nodes.
func NewDigraphBuilder(n int) *DigraphBuilder { return graph.NewDigraphBuilder(n) }

// ReadDirectedEdgeList parses "u v" arc lines into a Digraph.
func ReadDirectedEdgeList(r io.Reader) (*Digraph, map[int64]Node, error) {
	return graph.ReadDirectedEdgeList(r)
}

// Summary holds one dataset's Table 1 statistics row.
type Summary = graph.Summary

// NewBuilder returns a Builder pre-sized for n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph with n nodes from an explicit edge list.
func FromEdges(n int, edges [][2]Node) *Graph { return graph.FromEdges(n, edges) }

// ReadEdgeList parses a SNAP-style undirected edge list; node IDs are
// densely relabeled and the original→dense mapping is returned.
func ReadEdgeList(r io.Reader) (*Graph, map[int64]Node, error) { return graph.ReadEdgeList(r) }

// WriteEdgeList writes g as "u v" text lines.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// ReadAttr parses "node value" attribute lines for a graph with n
// nodes.
func ReadAttr(r io.Reader, n int) ([]float64, error) { return graph.ReadAttr(r, n) }

// WriteAttr writes an attribute vector as "node value" lines.
func WriteAttr(w io.Writer, name string, values []float64) error {
	return graph.WriteAttr(w, name, values)
}

// Generators (see internal/graph for details).
var (
	// Complete returns the complete graph K_n.
	Complete = graph.Complete
	// Barbell returns two K_k cliques joined by one bridge edge.
	Barbell = graph.Barbell
	// ClusteredCliques chains complete subgraphs with bridge edges.
	ClusteredCliques = graph.ClusteredCliques
	// ErdosRenyi returns a G(n,p) random graph.
	ErdosRenyi = graph.ErdosRenyi
	// GNM returns a uniform random graph with n nodes and m edges.
	GNM = graph.GNM
	// BarabasiAlbert returns a preferential-attachment graph.
	BarabasiAlbert = graph.BarabasiAlbert
	// HolmeKim returns a preferential-attachment graph with tunable
	// clustering (triad closure).
	HolmeKim = graph.HolmeKim
	// PowerLawCommunities returns an OSN-like graph with heavy-tailed
	// community sizes, dense blocks and preferential global links.
	PowerLawCommunities = graph.PowerLawCommunities
	// WattsStrogatz returns a small-world ring-rewiring graph.
	WattsStrogatz = graph.WattsStrogatz
	// PlantedPartition returns a stochastic block model graph.
	PlantedPartition = graph.PlantedPartition
	// Star returns the star graph on n nodes.
	Star = graph.Star
	// Cycle returns the n-cycle.
	Cycle = graph.Cycle
	// Path returns the n-node path.
	Path = graph.Path
	// Grid returns the rows×cols lattice.
	Grid = graph.Grid
)

// Client is the restricted OSN query interface available to samplers:
// local neighborhood queries, free neighbor-list summaries, and a
// unique-query cost counter.
type Client = access.Client

// Simulator is an in-memory Client over a Graph with exact unique-query
// accounting.
type Simulator = access.Simulator

// Budgeted wraps a Client with a hard unique-query budget.
type Budgeted = access.Budgeted

// RateLimiter simulates an OSN's query-rate limit on a virtual clock.
type RateLimiter = access.RateLimiter

// NewSimulator returns a Simulator over g.
func NewSimulator(g *Graph) *Simulator { return access.NewSimulator(g) }

// NewBudgeted wraps inner with a unique-query budget.
func NewBudgeted(inner Client, budget int) *Budgeted { return access.NewBudgeted(inner, budget) }

// NewRateLimiter returns a limiter allowing calls queries per window.
var NewRateLimiter = access.NewRateLimiter

// ErrBudgetExhausted is returned by Budgeted clients once the budget is
// spent.
var ErrBudgetExhausted = access.ErrBudgetExhausted

// Walker is one random-walk sampler in progress.
type Walker = core.Walker

// Factory constructs fresh walkers for experiment trials.
type Factory = core.Factory

// Grouper is GNRW's neighbor-stratification strategy.
type Grouper = core.Grouper

// Concrete walker types.
type (
	// SRW is the simple random walk (uniform neighbor, order 1).
	SRW = core.SRW
	// MHRW is the Metropolis–Hastings walk (uniform target).
	MHRW = core.MHRW
	// NBSRW is the non-backtracking simple random walk (order 2).
	NBSRW = core.NBSRW
	// CNRW is the paper's Circulated Neighbors Random Walk.
	CNRW = core.CNRW
	// GNRW is the paper's GroupBy Neighbors Random Walk.
	GNRW = core.GNRW
	// NBCNRW is CNRW layered on the non-backtracking walk (§5).
	NBCNRW = core.NBCNRW
	// CNRWNode is the node-keyed circulation ablation variant.
	CNRWNode = core.CNRWNode
)

// Grouping strategies for GNRW.
type (
	// HashGrouper assigns neighbors to random groups by MD5 of the ID.
	HashGrouper = core.HashGrouper
	// DegreeGrouper stratifies neighbors by their degree.
	DegreeGrouper = core.DegreeGrouper
	// AttrGrouper stratifies neighbors by a profile attribute.
	AttrGrouper = core.AttrGrouper
	// WidthGrouper stratifies by fixed-width attribute ranges.
	WidthGrouper = core.WidthGrouper
)

// NewSRW returns a simple random walk starting at start.
func NewSRW(c Client, start Node, rng *rand.Rand) *SRW { return core.NewSRW(c, start, rng) }

// NewMHRW returns a Metropolis–Hastings walk starting at start.
func NewMHRW(c Client, start Node, rng *rand.Rand) *MHRW { return core.NewMHRW(c, start, rng) }

// NewNBSRW returns a non-backtracking walk starting at start.
func NewNBSRW(c Client, start Node, rng *rand.Rand) *NBSRW { return core.NewNBSRW(c, start, rng) }

// NewCNRW returns a circulated-neighbors walk starting at start.
func NewCNRW(c Client, start Node, rng *rand.Rand) *CNRW { return core.NewCNRW(c, start, rng) }

// NewGNRW returns a groupby-neighbors walk with the given grouping
// strategy starting at start.
func NewGNRW(c Client, g Grouper, start Node, rng *rand.Rand) *GNRW {
	return core.NewGNRW(c, g, start, rng)
}

// NewNBCNRW returns a non-backtracking circulated walk starting at
// start.
func NewNBCNRW(c Client, start Node, rng *rand.Rand) *NBCNRW { return core.NewNBCNRW(c, start, rng) }

// NewCNRWNode returns the node-keyed circulation ablation walker.
func NewCNRWNode(c Client, start Node, rng *rand.Rand) *CNRWNode {
	return core.NewCNRWNode(c, start, rng)
}

// Walker factories for experiment fan-out.
var (
	// SRWFactory builds SRW walkers.
	SRWFactory = core.SRWFactory
	// MHRWFactory builds MHRW walkers.
	MHRWFactory = core.MHRWFactory
	// NBSRWFactory builds NB-SRW walkers.
	NBSRWFactory = core.NBSRWFactory
	// CNRWFactory builds CNRW walkers.
	CNRWFactory = core.CNRWFactory
	// CNRWNodeFactory builds node-keyed CNRW walkers (ablation).
	CNRWNodeFactory = core.CNRWNodeFactory
	// NBCNRWFactory builds NB-CNRW walkers.
	NBCNRWFactory = core.NBCNRWFactory
	// GNRWFactory builds GNRW walkers with a grouping strategy.
	GNRWFactory = core.GNRWFactory
)

// Design identifies a sampler's stationary distribution for estimation.
type Design = estimate.Design

// Estimator designs.
const (
	// DegreeProportional marks samples with π(v) ∝ k_v (SRW, NB-SRW,
	// CNRW, GNRW).
	DegreeProportional = estimate.DegreeProportional
	// Uniform marks samples with uniform π (MHRW).
	Uniform = estimate.Uniform
)

// Estimators.
type (
	// Mean estimates a population mean with design-appropriate
	// reweighting.
	Mean = estimate.Mean
	// AvgDegree estimates the population average degree.
	AvgDegree = estimate.AvgDegree
	// Proportion estimates a population fraction.
	Proportion = estimate.Proportion
	// MeanCI is a Mean with batch-means confidence intervals.
	MeanCI = estimate.MeanCI
	// Interval is a confidence interval around a point estimate.
	Interval = estimate.Interval
	// ConditionalMean estimates a conditional (sub-population)
	// aggregate.
	ConditionalMean = estimate.ConditionalMean
)

// NewMean returns a mean estimator for the given design.
func NewMean(d Design) *Mean { return estimate.NewMean(d) }

// NewAvgDegree returns an average-degree estimator for the given design.
func NewAvgDegree(d Design) *AvgDegree { return estimate.NewAvgDegree(d) }

// NewProportion returns a proportion estimator for the given design.
func NewProportion(d Design) *Proportion { return estimate.NewProportion(d) }

// NewMeanCI returns a mean estimator with batch-means confidence
// intervals.
func NewMeanCI(d Design, batch int) (*MeanCI, error) { return estimate.NewMeanCI(d, batch) }

// NewConditionalMean returns a conditional-aggregate estimator.
func NewConditionalMean(d Design) *ConditionalMean { return estimate.NewConditionalMean(d) }

// MeanFromPath estimates a population mean from a complete sample path.
var MeanFromPath = estimate.MeanFromPath

// RelativeError returns |est−truth|/|truth|.
var RelativeError = estimate.RelativeError

// Parallel trial execution (see internal/engine).
type (
	// Engine is the deterministic worker-pool trial runner every
	// experiment loop submits to.
	Engine = engine.Engine
	// EngineOptions configures an Engine (worker count, progress
	// callback).
	EngineOptions = engine.Options
)

// NewEngine returns an Engine with the given options.
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// TrialSeed derives trial t's RNG seed from a master seed and a stream
// identifier via a splitmix64 mixer (scheduling-independent).
var TrialSeed = engine.TrialSeed

// StreamID hashes experiment labels into a seed-stream identifier, so
// experiments sharing a master seed draw disjoint seed sequences.
var StreamID = engine.StreamID
