// Package session is the library's high-level entry point: a
// declarative Spec describing one complete sampling run — the data
// source (an in-memory graph or a live access.Client), the walker, the
// aggregates to estimate, the unique-query budget, burn-in/thinning,
// the number of independent chains and the master seed — executed
// either in one shot by Run or incrementally through a Session.
//
// Run fans the chains out over the deterministic worker-pool engine
// with the established seed-stream discipline (chain c's RNG seed is
// TrialSeed(Seed, Stream, c)), so for a fixed Spec the Result is
// bit-identical for every Workers setting. A Session advances the same
// chains one transition at a time from a single goroutine — useful for
// online consumers that want to watch estimates converge — and its
// final Result is identical to Run's for the same Spec.
//
// This is the paper's value proposition as an API: hand it a
// restrictive OSN interface and a query budget, get back an unbiased
// estimate with a confidence interval and exact query-cost accounting,
// with no hand-written step/burn-in/budget loop.
//
// Chains run on the zero-allocation walk hot path (see internal/core):
// each chain's walker holds its own scratch buffers and reads
// neighborhoods through access.Client.NeighborsAppend, and the chain's
// per-step measurement reuses the chainRun scratch. A chain is a
// stream: each retained sample is folded once into the chain's running
// estimator state and then dropped, so a chain's memory grows only
// with its completed CIBatch batches, and a steady-state transition
// allocates only when a batch completes. A Spec
// with a custom Client must satisfy the NeighborsAppend contract
// (stable neighbor order, caller-owned buffers) for chains to behave
// deterministically.
package session

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"histwalk/internal/access"
	"histwalk/internal/core"
	"histwalk/internal/diagnostics"
	"histwalk/internal/engine"
	"histwalk/internal/estimate"
	"histwalk/internal/graph"
	"histwalk/internal/obs"
	"histwalk/internal/stats"
)

// DesignChoice selects the estimator's stationary-distribution
// correction, or defers to the walker.
type DesignChoice int

const (
	// DesignAuto derives the design from the walker's name (MHRW is
	// uniform, everything else degree-proportional).
	DesignAuto DesignChoice = iota
	// DesignDegreeProportional forces π(v) ∝ k_v reweighting.
	DesignDegreeProportional
	// DesignUniform forces the plain sample mean.
	DesignUniform
)

// CachePolicy selects how the network bills the chains of a
// multi-chain source (Graph or Transport). It is a choice made
// when the Result is merged: every chain keeps its own access.Ledger
// either way, so it never changes what a chain reads.
type CachePolicy int

const (
	// CacheIsolated gives every chain its own private cache and
	// unique-query counter (the default): chains model separate crawler
	// deployments that share nothing, so the network cost is the sum of
	// the chains' costs.
	CacheIsolated CachePolicy = iota
	// CacheShared models all chains sharing one local crawl cache:
	// once any chain has fetched a node, sibling chains read it for
	// free, as a real multi-account crawler with one local cache would.
	// A cache hit never changes what a chain reads, so each chain runs
	// on its own client exactly as under CacheIsolated — budgets,
	// trajectories and estimates are bit-identical for any Workers
	// value or pipelining — and the Result derives the fleet's
	// network ledger from the union of the chains' ledgers
	// (access.UniqueAcross): the strictly smaller global network cost
	// and the cross-chain hit rate.
	CacheShared
)

// SteppingMode names a chain-advancement mode. There is one: each
// chain advances independently — Run and Drive fan whole chains out
// over the worker pool, and a Session's Next rotates round-robin.
type SteppingMode int

const (
	// SteppingPerChain is the default and only stepping mode.
	SteppingPerChain SteppingMode = iota
	// SteppingBatched is a deprecated alias of SteppingPerChain, kept
	// so specs and wire jobs that name it ("stepping": "batched") still
	// validate, return the per-chain Result and keep their job IDs.
	SteppingBatched
)

// Aggregate identifies the kind of population aggregate an
// EstimatorSpec computes.
type Aggregate int

const (
	// AggMean estimates the population mean of the measure attribute.
	AggMean Aggregate = iota
	// AggAvgDegree estimates the population average degree (AggMean
	// over the node degree; Attr is ignored).
	AggAvgDegree
	// AggProportion estimates the fraction of nodes whose measured
	// value satisfies Predicate.
	AggProportion
)

// EstimatorSpec declares one aggregate to estimate during the run.
type EstimatorSpec struct {
	// Name labels the estimate in the Result. Empty derives a label
	// from the kind and attribute, e.g. "avg(degree)".
	Name string
	// Kind selects the aggregate.
	Kind Aggregate
	// Attr is the measure attribute; "" or "degree" measures the node
	// degree. Ignored by AggAvgDegree.
	Attr string
	// Predicate classifies a measured value for AggProportion
	// (required for that kind, ignored otherwise). It must be pure.
	Predicate func(value float64) bool
}

// attr returns the effective measure attribute.
func (e EstimatorSpec) attr() string {
	if e.Kind == AggAvgDegree {
		return "degree"
	}
	return e.Attr
}

// label returns the display name of the estimate.
func (e EstimatorSpec) label() string {
	if e.Name != "" {
		return e.Name
	}
	a := e.attr()
	if a == "" {
		a = "degree"
	}
	if e.Kind == AggProportion {
		return "proportion(" + a + ")"
	}
	return "avg(" + a + ")"
}

// transform maps a raw measured value to the value the estimator
// averages (the 0/1 indicator for proportions).
func (e EstimatorSpec) transform(raw float64) float64 {
	if e.Kind == AggProportion {
		if e.Predicate(raw) {
			return 1
		}
		return 0
	}
	return raw
}

// Spec declares one sampling run. The zero value is not runnable; at
// minimum one of Graph, Client and Transport, plus Walker and
// Budget, must be set. All other fields have working defaults (see
// each field's comment).
type Spec struct {
	// Graph is the network to sample in simulation mode: every chain
	// gets its own access.Simulator over it (private cache, private
	// unique-query accounting) under either cache policy. It may be
	// built in memory or opened from a packed .hwg file
	// (graphstore.Open), which samples an out-of-core graph without
	// parsing or heap residency; trajectories, query costs and
	// estimates are bit-identical either way. Exactly one of Graph,
	// Client and Transport must be set.
	Graph *graph.Graph
	// Client is a live restricted-access interface to walk directly
	// (online mode). A shared client has one cache and one query
	// counter, so Client mode supports a single chain. If the client
	// enforces a budget itself (access.Budgeted), hitting
	// ErrBudgetExhausted ends the run cleanly rather than failing it.
	Client access.Client
	// Transport is a context-aware pipelined transport to crawl
	// (remote-crawl mode): chains run over one access.Prefetcher wrapping
	// it — shared row cache, single-flight dedup across chains,
	// speculative frontier prefetch up to Window in-flight fetches.
	// Unlike Client mode it supports multiple chains (the pipeline is
	// concurrency-safe and keeps per-chain accounting bit-identical to
	// private simulators); every chain starts at Start. Exactly one of
	// Graph, Client and Transport must be set.
	Transport access.Transport
	// Start is the chains' start node in Client and Transport mode
	// (Graph mode draws a uniform non-isolated start per chain
	// from the chain's RNG).
	Start graph.Node

	// Walker builds one fresh walker per chain.
	Walker core.Factory
	// Design selects the estimator correction (default: derived from
	// the walker's name).
	Design DesignChoice
	// Estimators lists the aggregates to estimate. Empty defaults to
	// a single average-degree estimator.
	Estimators []EstimatorSpec

	// Budget is the per-chain query budget (>= 1). Under CostUnique it
	// counts unique queries issued by this run; under CostSteps it
	// counts transitions.
	Budget int
	// Cost selects the budget metering (default CostUnique, the
	// paper's §2.3 definition).
	Cost engine.CostModel
	// MaxSteps caps each chain's transitions (0 = 200×Budget under
	// CostUnique; under CostSteps the budget itself is the cap).
	MaxSteps int
	// BurnIn discards each chain's first BurnIn samples.
	BurnIn int
	// Thin keeps every Thin-th post-burn-in sample (0 or 1 = all).
	Thin int

	// Chains is the number of independent walkers (0 = 1). Each chain
	// has its own RNG, cache and budget — the practical OSN deployment
	// mode, where every crawler account is rate-limited separately.
	Chains int
	// Cache selects the chains' cache topology for every multi-chain
	// source: Graph or Transport (default CacheIsolated).
	// CacheShared accounts the chains as one fleet sharing a crawl
	// cache, which changes only the Result's network ledger, never a
	// chain's trajectory or budget accounting; see CachePolicy.
	Cache CachePolicy
	// Window is the pipelined access layer's speculative in-flight
	// window: how many prefetch fetches may be outstanding at once.
	// In Graph mode a positive Window (or Latency) switches the
	// run to the pipelined-simulation path — chains read through one
	// access.Prefetcher over a simulated transport — with trajectories,
	// RNG consumption and per-chain query costs bit-identical to the
	// synchronous path for any value. In Transport mode it tunes the
	// pipeline over the live transport (0 disables speculation; the
	// shared row cache and single-flight dedup remain). Pipelining
	// composes with either cache policy and changes no Result field
	// except Pipeline.
	Window int
	// Latency is the simulated per-fetch transport latency for the
	// Graph pipelined mode (0 = none). It models a remote API's
	// round-trip time so latency hiding can be measured; it cannot be
	// combined with a live Transport, whose latency is real.
	Latency time.Duration
	// Stepping is ignored: every chain steps on its own (see
	// SteppingMode). Validate still rejects an unknown value.
	Stepping SteppingMode
	// Workers caps how many chains run concurrently in Run and Drive
	// (0 = one worker per chain), whatever the Stepping value. The
	// Result is bit-identical for every value.
	Workers int
	// Seed is the master seed; chain c runs with
	// TrialSeed(Seed, Stream, c).
	Seed int64
	// Stream separates seed streams of runs sharing a master seed
	// (0 = StreamID("session")).
	Stream uint64

	// Confidence is the level for the reported intervals: 0.90, 0.95
	// or 0.99 (0 = 0.95).
	Confidence float64
	// CIBatch is the batch size of the batch-means interval
	// construction (0 = 50). Pick at least a few mixing times. R̂ reads
	// the chains' prefixes of equal length rounded down to a multiple
	// of CIBatch, and is absent while that length is below
	// max(CIBatch, 4).
	CIBatch int

	// autoMaxSteps records that MaxSteps was defaulted rather than set
	// by the caller, enabling the Client-mode saturation cap.
	autoMaxSteps bool
	// pipe is the pipelined access layer when the spec selects it
	// (Transport set, or Graph mode with Window/Latency), created
	// once per Run/Session; chains read through per-chain PipeViews.
	pipe *access.Prefetcher
	// nodes is the network size when known (Graph mode, or a
	// Transport implementing access.NodeCounter); 0 means unknown, which
	// disables the saturation stop and enables the progress bound.
	nodes int
}

// Validate checks the spec without running it.
func (s Spec) Validate() error {
	sources := 0
	for _, set := range []bool{s.Graph != nil, s.Client != nil, s.Transport != nil} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return errors.New("session: exactly one of Graph, Client and Transport must be set")
	}
	if s.Client != nil && s.Chains > 1 {
		return errors.New("session: a shared Client supports one chain; use Graph or Transport for multi-chain fan-out")
	}
	if s.Window < 0 {
		return errors.New("session: Window must be >= 0")
	}
	if s.Latency < 0 {
		return errors.New("session: Latency must be >= 0")
	}
	if s.Client != nil && (s.Window != 0 || s.Latency != 0) {
		return errors.New("session: Window and Latency select the pipelined access layer, which a raw Client bypasses; use Transport")
	}
	if s.Transport != nil && s.Latency != 0 {
		return errors.New("session: Latency simulates a transport's round trip; a live Transport's latency is its own")
	}
	if s.Walker.New == nil {
		return errors.New("session: Walker factory without constructor")
	}
	if s.Budget < 1 {
		return errors.New("session: Budget must be >= 1")
	}
	if s.MaxSteps < 0 || s.BurnIn < 0 || s.Thin < 0 || s.Chains < 0 || s.Workers < 0 || s.CIBatch < 0 {
		return errors.New("session: MaxSteps, BurnIn, Thin, Chains, Workers and CIBatch must be >= 0")
	}
	if s.Confidence != 0 && !estimate.ValidConfidence(s.Confidence) {
		return fmt.Errorf("session: unsupported confidence level %v (use 0.90, 0.95 or 0.99)", s.Confidence)
	}
	if s.Cost != engine.CostUnique && s.Cost != engine.CostSteps {
		return fmt.Errorf("session: unknown cost model %d", int(s.Cost))
	}
	if s.Client == nil && s.Transport == nil && s.Start != 0 {
		return errors.New("session: Start is only used in Client and Transport mode; Graph mode draws each chain's start from its RNG")
	}
	switch s.Cache {
	case CacheIsolated:
	case CacheShared:
		if s.Client != nil {
			return errors.New("session: CacheShared applies to multi-chain sources (Graph, Transport); a Client brings its own cache")
		}
	default:
		return fmt.Errorf("session: unknown cache policy %d", int(s.Cache))
	}
	switch s.Stepping {
	case SteppingPerChain, SteppingBatched:
	default:
		return fmt.Errorf("session: unknown stepping mode %d", int(s.Stepping))
	}
	switch s.Design {
	case DesignAuto, DesignDegreeProportional, DesignUniform:
	default:
		return fmt.Errorf("session: unknown design choice %d", int(s.Design))
	}
	for i, e := range s.Estimators {
		switch e.Kind {
		case AggMean, AggAvgDegree:
		case AggProportion:
			if e.Predicate == nil {
				return fmt.Errorf("session: estimator %d (%s) is a proportion without a Predicate", i, e.label())
			}
		default:
			return fmt.Errorf("session: estimator %d has unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// defaultStream separates session chain seeds from the experiment
// harness's trial seeds.
var defaultStream = engine.StreamID("session")

// normalize validates s and returns a copy with defaults applied.
func normalize(s Spec) (*Spec, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Chains == 0 {
		s.Chains = 1
	}
	if s.Workers == 0 {
		s.Workers = s.Chains
	}
	if s.Thin == 0 {
		s.Thin = 1
	}
	if s.MaxSteps == 0 {
		s.autoMaxSteps = true
		if s.Cost == engine.CostSteps {
			s.MaxSteps = s.Budget
		} else {
			s.MaxSteps = 200 * s.Budget
		}
	}
	if s.Confidence == 0 {
		s.Confidence = 0.95
	}
	if s.CIBatch == 0 {
		s.CIBatch = 50
	}
	if s.Stream == 0 {
		s.Stream = defaultStream
	}
	if len(s.Estimators) == 0 {
		s.Estimators = []EstimatorSpec{{Kind: AggAvgDegree}}
	}
	if s.Transport != nil {
		s.pipe = access.NewPrefetcher(s.Transport, s.Window)
		if nc, ok := s.Transport.(access.NodeCounter); ok {
			s.nodes = nc.NumNodes()
		}
	} else if s.Graph != nil {
		s.nodes = s.Graph.NumNodes()
		if s.pipelined() {
			s.pipe = access.NewPrefetcher(access.NewSimTransport(s.Graph, s.Latency), s.Window)
		}
	}
	return &s, nil
}

// pipelined reports whether the spec selects the pipelined access
// layer: always in Transport mode, and in Graph mode whenever a
// speculation window or simulated latency is requested.
func (s *Spec) pipelined() bool {
	return s.Transport != nil || (s.Graph != nil && (s.Window > 0 || s.Latency > 0))
}

// pipelineStats snapshots the pipelined access layer's wire-side
// counters; nil for non-pipelined specs.
func (s *Spec) pipelineStats() *access.PipelineStats {
	if s.pipe == nil {
		return nil
	}
	st := s.pipe.Stats()
	return &st
}

// closePipe cancels the pipelined access layer's outstanding
// speculative fetches and waits for their goroutines; a no-op for
// non-pipelined specs. The chains' results stay readable afterwards.
func (s *Spec) closePipe() {
	if s.pipe != nil {
		s.pipe.Close()
	}
}

// design resolves the estimator design.
func (s *Spec) design() estimate.Design {
	switch s.Design {
	case DesignDegreeProportional:
		return estimate.DegreeProportional
	case DesignUniform:
		return estimate.Uniform
	default:
		return engine.DesignFor(s.Walker.Name)
	}
}

// Estimate is one aggregate's outcome: the pooled point estimate over
// all chains, a batch-means confidence interval when enough samples
// accumulated, per-chain estimates and the Gelman–Rubin diagnostic.
type Estimate struct {
	// Name is the estimator's label.
	Name string `json:"name"`
	// Design is the correction the estimate was computed under.
	Design estimate.Design `json:"design"`
	// Point is the pooled estimate over all chains' retained samples.
	Point float64 `json:"point"`
	// Interval is the Spec.Confidence interval around Point, pooled
	// from the chains' batch-means components; valid iff HasInterval.
	Interval estimate.Interval `json:"interval"`
	// HasInterval reports whether enough complete batches accumulated
	// to build Interval.
	HasInterval bool `json:"has_interval"`
	// PerChain holds each chain's own estimate.
	PerChain []float64 `json:"per_chain"`
	// GelmanRubin is R̂ across the chains' retained sample series, over
	// their first L samples each: the shortest chain's count rounded
	// down to a multiple of Spec.CIBatch (0 when not computable, e.g. a
	// single chain, or L below max(CIBatch, 4)).
	GelmanRubin float64 `json:"gelman_rubin,omitempty"`
	// Samples is the number of retained samples pooled into Point.
	Samples int `json:"samples"`
}

// MarshalJSON encodes the estimate, omitting a non-finite Gelman–Rubin
// value: JSON has no Inf/NaN, and R̂ is +Inf exactly when chains
// disagree with zero within-chain variance (e.g. walks stuck on
// constant-degree cliques early in a run). Over the wire "absent"
// already means "diagnostic not computable"; the divergence itself
// stays visible in the per-chain estimates.
func (e Estimate) MarshalJSON() ([]byte, error) {
	type alias Estimate // drops the method, avoiding recursion
	a := alias(e)
	if math.IsInf(a.GelmanRubin, 0) || math.IsNaN(a.GelmanRubin) {
		a.GelmanRubin = 0
	}
	return json.Marshal(a)
}

// ChainResult is one chain's accounting.
type ChainResult struct {
	// Chain is the chain's index within the spec (meaningful when a
	// partial merge reports a subset of the chains).
	Chain int `json:"chain"`
	// Seed is the chain's derived RNG seed.
	Seed int64 `json:"seed"`
	// Start is the node the chain's walk began at.
	Start graph.Node `json:"start"`
	// Steps is the number of transitions performed.
	Steps int `json:"steps"`
	// Queries is the budget spend (unique queries under CostUnique).
	Queries int `json:"queries"`
	// Requests counts all requests including cache hits (0 when the
	// client does not report it).
	Requests int `json:"requests"`
	// Samples is the number of retained samples after burn-in and
	// thinning.
	Samples int `json:"samples"`
}

// Result is the outcome of a sampling run.
type Result struct {
	// Estimates holds one entry per EstimatorSpec, in spec order.
	Estimates []Estimate `json:"estimates"`
	// Chains holds per-chain accounting, in chain order.
	Chains []ChainResult `json:"chains"`
	// TotalSteps sums the transitions across chains.
	TotalSteps int `json:"total_steps"`
	// TotalQueries sums the chain-local budget spend across chains. It
	// is identical under CacheIsolated and CacheShared: budgets always
	// charge the chain that issued the query.
	TotalQueries int `json:"total_queries"`
	// GlobalQueries is the network-level unique query count — what the
	// whole run paid the OSN for under the cache policy, from the
	// chains' ledgers alone, whatever the source. Under CacheIsolated
	// every chain pays for its own fetches, so this is the sum of the
	// chains' unique costs; under CacheShared a node fetched by any
	// chain is free for the others, so this is the number of distinct
	// nodes the run's chains queried between them. Under the default
	// CostUnique metering the ledger balances as GlobalQueries +
	// CrossChainHits == TotalQueries (strictly smaller than
	// TotalQueries whenever chains overlap); under CostSteps,
	// TotalQueries counts transitions instead and is not comparable to
	// this field. Fetches a pipeline issued on the wire, speculative
	// ones included, are Pipeline.NetworkFetches.
	GlobalQueries int `json:"global_queries"`
	// GlobalRequests counts all requests across chains including cache
	// hits (0 when the client reports no request totals).
	GlobalRequests int `json:"global_requests"`
	// CrossChainHits counts chain-locally-new queries for nodes the
	// shared cache already held: the sum of the chains' unique costs
	// minus GlobalQueries (always 0 under CacheIsolated).
	CrossChainHits int `json:"cross_chain_hits"`
	// CrossChainHitRate is CrossChainHits as a fraction of all
	// chain-locally-new queries: the share of the would-be network cost
	// that the shared cache saved. 0 under CacheIsolated.
	CrossChainHitRate float64 `json:"cross_chain_hit_rate"`
	// Pipeline, present exactly in pipelined mode, snapshots the shared
	// access pipeline's wire-side counters: every network fetch it
	// issued, demand and speculative alike (speculation may fetch rows
	// no chain ever demands, waste that buys wall-clock time), and how
	// chain-locally-new demands found their rows. It is the only Result
	// field that depends on goroutine scheduling; every other field is
	// deterministic and equals the synchronous run of the same Spec.
	Pipeline *access.PipelineStats `json:"pipeline,omitempty"`
}

// Lookup returns the estimate with the given label.
func (r *Result) Lookup(name string) (Estimate, bool) {
	for _, e := range r.Estimates {
		if e.Name == name {
			return e, true
		}
	}
	return Estimate{}, false
}

// Run executes the spec's chains on the worker-pool engine and merges
// their estimates. For a fixed Spec the Result is bit-identical for
// every Workers value; ctx cancellation stops the pool.
func Run(ctx context.Context, spec Spec) (*Result, error) {
	s, err := NewSession(spec)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Drive(ctx, nil)
}

// Update reports one Session transition and the chain's counts after
// it, so an observer keeps no count of its own.
type Update struct {
	// Chain is the chain that moved.
	Chain int `json:"chain"`
	// Node is the node the chain arrived at.
	Node graph.Node `json:"node"`
	// Step is the chain's transition count after this move.
	Step int `json:"step"`
	// Spent is the chain's budget spend after this move.
	Spent int `json:"spent"`
	// Samples is the chain's retained-sample count after this move.
	Samples int `json:"samples"`
	// Sampled reports whether the sample was retained (past burn-in
	// and on the thinning grid).
	Sampled bool `json:"sampled"`
}

// Session advances a Spec's chains incrementally from a single
// goroutine: each Next performs one transition, rotating round-robin
// over the chains still inside their budgets. Because chains share no
// state, the interleaving does not affect any chain's path, and the
// final Result is identical to Run's for the same Spec. A Session is
// not safe for concurrent use.
type Session struct {
	sp     *Spec
	chains []*chainRun
	cursor int
	closed bool // Close counted the unfinished chains
}

// NewSession validates the spec and prepares its chains without
// stepping them.
func NewSession(spec Spec) (*Session, error) {
	sp, err := normalize(spec)
	if err != nil {
		return nil, err
	}
	return newSession(sp)
}

// newSession builds a Session over an already-normalized spec. On
// failure it closes what it built: the chains constructed so far count
// as abandoned, and the pipeline is released.
func newSession(sp *Spec) (*Session, error) {
	s := &Session{sp: sp, chains: make([]*chainRun, 0, sp.Chains)}
	for c := range sp.Chains {
		cr, err := newChain(sp, c)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.chains = append(s.chains, cr)
	}
	shareStrata(sp, s.chains)
	return s, nil
}

// shareStrata hands the session's GNRW chains one stratum table per
// grouper (core.ShareStrata). Only a Graph source qualifies:
// every chain then reads one static network. Transport and Client
// chains keep private tables, so a changing upstream cannot leak one
// chain's answer into another chain's walk.
func shareStrata(sp *Spec, chains []*chainRun) {
	if sp.Graph == nil {
		return
	}
	ws := make([]core.Walker, len(chains))
	for c, cr := range chains {
		ws[c] = cr.walker
	}
	core.ShareStrata(ws)
}

// Next performs one transition on the next active chain. ok is false
// once every chain has finished its budget (the Update is then zero).
func (s *Session) Next() (u Update, ok bool, err error) {
	n := len(s.chains)
	for scanned := 0; scanned < n; {
		cr := s.chains[s.cursor]
		if cr.done {
			s.cursor = (s.cursor + 1) % n
			scanned++
			continue
		}
		stepped, err := cr.advance(s.sp)
		if err != nil {
			return Update{}, false, err
		}
		if !stepped { // chain just hit a stop condition without moving
			s.cursor = (s.cursor + 1) % n
			scanned++
			continue
		}
		s.cursor = (s.cursor + 1) % n
		return cr.update(s.sp), true, nil
	}
	return Update{}, false, nil
}

// PipelineStats snapshots the shared access pipeline's network-side
// counters mid-run or after completion; nil for non-pipelined specs.
// Like Result.Pipeline, the counters depend on goroutine scheduling
// and sit outside the determinism invariant.
func (s *Session) PipelineStats() *access.PipelineStats { return s.sp.pipelineStats() }

// Close ends the session. Each chain that never reached a stop
// condition (a cancelled or abandoned run) is counted once, as
// abandoned, with its spend; the pipelined access layer's background
// resources are released (outstanding speculative fetches cancelled).
// Result and PartialResult stay callable after Close, but the chains
// must not be advanced further. Run closes its own session; Session
// callers should defer Close.
func (s *Session) Close() {
	if !s.closed {
		s.closed = true
		for _, cr := range s.chains {
			if !cr.done {
				cr.abandon(s.sp)
			}
		}
	}
	s.sp.closePipe()
}

// Done reports whether every chain has finished.
func (s *Session) Done() bool {
	for _, cr := range s.chains {
		if !cr.done {
			return false
		}
	}
	return true
}

// Result merges the chains' samples into estimates. It may be called
// mid-run for a partial result (every chain must have produced at
// least one retained sample) and again later; the final call, after
// Next has returned ok == false, equals Run's Result for the same
// Spec.
//
// A merge reads only the chains' running state, which every retained
// sample was folded into once (see merge), so it costs O(chains ×
// estimators + completed batches) whatever the run's length. Next's
// rule applies to it: never run Result or PartialResult at the same
// time as Next, Drive or another merge on the same Session.
func (s *Session) Result() (*Result, error) {
	return merge(s.sp, s.chains, s.chains)
}

// PartialResult merges only the chains that have retained at least one
// sample — the right view after an interruption, when some chains may
// never have been dispatched at all. The Result covers exactly the
// sampled chains: estimates, per-chain entries and diagnostics span
// that subset (each ChainResult.Chain carries the chain's original
// index), while under CacheShared the global network counters remain
// the whole run's ledger. It errors only when no chain has a sample;
// once every chain has sampled it is identical to Result. It merges
// like Result, at the same cost and under the same rule: never at the
// same time as Next, Drive or another merge.
func (s *Session) PartialResult() (*Result, error) {
	var sampled []*chainRun
	for _, cr := range s.chains {
		if cr.samples > 0 {
			sampled = append(sampled, cr)
		}
	}
	if len(sampled) == 0 {
		return nil, errors.New("session: no chain has retained a sample yet")
	}
	return merge(s.sp, s.chains, sampled)
}

// requestReporter is implemented by clients that count all requests
// including cache hits.
type requestReporter interface{ TotalRequests() int }

// chainRun is one chain's in-flight state. Chains share no chain-local
// state, so a chainRun is confined to whichever goroutine drives it
// (in pipelined mode the Prefetcher behind the PipeViews is
// concurrency-safe).
type chainRun struct {
	idx     int
	seed    int64
	client  access.Client
	ledger  *access.Ledger // the client's own ledger; nil in Client mode
	base    int            // Client mode: query cost at chain start
	reqBase int            // Client mode: request total at chain start
	walker  core.Walker
	start   graph.Node
	steps   int
	done    bool

	// node and sampled describe the chain's last transition: where it
	// arrived and whether that sample was retained (see update).
	node    graph.Node
	sampled bool

	// warm and cands wire the chain into the pipelined access layer's
	// speculative prefetch (both nil outside pipelined mode, or when
	// the walker offers no candidate hint). After each transition the
	// walker's last-fetched candidate frontier — which contains the
	// walk's new position — is handed to the pipeline as a prefetch
	// hint; the hint is accounting-free and consumes no RNG, so it
	// cannot perturb the trajectory.
	warm  *access.PipeView
	cands core.CandidateAdvertiser

	scratch []float64 // per-step measure buffer, reused across steps

	// The retained samples, each folded once by retain and never kept:
	// samples counts them, digest hashes their degrees and raw values
	// for checkpoints, and accs holds each estimator's running state.
	samples int
	digest  uint64
	accs    []estAcc

	// rngDraws counts every draw the chain's RNG has served (the start
	// draw included), via the counting source wrapped around it in
	// newChain. A Checkpoint records it as the RNG stream position; a
	// resumed chain must land on the same count, which pins that replay
	// reproduced the exact draw sequence.
	rngDraws *uint64
}

// countingSource wraps a chain's rand.Source64, counting draws so a
// checkpoint can record (and resume can verify) the RNG stream
// position. It forwards both Int63 and Uint64 to the wrapped source,
// so the value stream is bit-identical to the unwrapped source —
// *rand.Rand takes the same Source64 fast path either way.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func (s *countingSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.n++
	return s.src.Uint64()
}

func (s *countingSource) Seed(seed int64) { s.src.Seed(seed) }

// chainRNG builds chain c's seeded RNG with draw counting. math/rand's
// NewSource implements Source64; the fallback path (a foreign Source
// that does not) preserves rand.Rand's non-Source64 behavior by not
// wrapping at all — counting is then unavailable and draws stays nil,
// which Checkpoint reports as position 0 on both sides of a resume.
func chainRNG(seed int64) (*rand.Rand, *uint64) {
	base := rand.NewSource(seed)
	if s64, ok := base.(rand.Source64); ok {
		cs := &countingSource{src: s64}
		return rand.New(cs), &cs.n
	}
	return rand.New(base), nil
}

// newChain derives chain c's seed, builds its private client (Graph
// mode) and positions its walker.
func newChain(sp *Spec, c int) (*chainRun, error) {
	seed := engine.TrialSeed(sp.Seed, sp.Stream, c)
	rng, draws := chainRNG(seed)
	cr := &chainRun{
		idx:      c,
		seed:     seed,
		accs:     make([]estAcc, len(sp.Estimators)),
		scratch:  make([]float64, len(sp.Estimators)),
		digest:   digestBasis,
		rngDraws: draws,
	}
	for e := range cr.accs {
		ci, err := estimate.NewMeanCI(sp.design(), sp.CIBatch)
		if err != nil {
			return nil, err
		}
		cr.accs[e].ci = ci
	}
	switch {
	case sp.pipe != nil:
		view := sp.pipe.View()
		cr.ledger = &view.Ledger
		cr.client = view
		cr.warm = view
		if sp.Graph != nil {
			// Pipelined simulation: the start draw consumes the chain
			// RNG exactly as the synchronous Graph path does, so
			// trajectories stay bit-identical across the mode switch.
			start, err := engine.RandomStart(sp.Graph, rng)
			if err != nil {
				return nil, fmt.Errorf("session: chain %d: %w", c, err)
			}
			cr.start = start
		} else {
			cr.start = sp.Start
		}
	case sp.Graph != nil:
		sim := access.NewSimulator(sp.Graph)
		cr.ledger = &sim.Ledger
		cr.client = sim
		start, err := engine.RandomStart(sp.Graph, rng)
		if err != nil {
			return nil, fmt.Errorf("session: chain %d: %w", c, err)
		}
		cr.start = start
	default:
		cr.client = sp.Client
		cr.base = sp.Client.QueryCost()
		if tr, ok := sp.Client.(requestReporter); ok {
			cr.reqBase = tr.TotalRequests()
		}
		cr.start = sp.Start
	}
	cr.walker = sp.Walker.New(cr.client, cr.start, rng)
	if cr.warm != nil {
		if ca, ok := cr.walker.(core.CandidateAdvertiser); ok {
			cr.cands = ca
		}
		// Seed the pipeline with the start node: its row (and, through
		// the recursive warm, its neighborhood) is the walk's first
		// demand.
		cr.warm.Warm([]graph.Node{cr.start})
	}
	// Results are reported under Walker.Name; a factory that had to
	// substitute a fallback (core.Degraded — e.g. a frontier sampler
	// whose bootstrap queries an exhausted client refused) would run a
	// different algorithm than the Result claims, so fail the chain
	// with the degradation spelled out instead.
	if d, ok := cr.walker.(*core.Degraded); ok {
		return nil, fmt.Errorf("session: chain %d: %s construction degraded to %s; refusing to run under a wrong label",
			c, sp.Walker.Name, d.Unwrap().Name())
	}
	obsChainsStarted.Inc()
	if tr := obs.ActiveTracer(); tr != nil {
		tr.Emit("chain.start", obs.F{
			"chain": c, "seed": seed, "start": int64(cr.start), "walker": sp.Walker.Name,
		})
	}
	return cr, nil
}

// spend returns the chain's budget consumption under the spec's cost
// model.
func (cr *chainRun) spend(sp *Spec) int {
	if sp.Cost == engine.CostSteps {
		return cr.steps
	}
	return cr.client.QueryCost() - cr.base
}

// advance performs one transition if the chain is still inside its
// budget and step cap; otherwise it marks the chain done. stepped
// reports whether a transition actually happened; update then
// describes it. After the walker's Step come the error classification,
// measurement, the retained sample's fold and the saturation stops. A
// budget-exhausted error from the client (access.Budgeted in Client
// mode) ends the chain cleanly.
func (cr *chainRun) advance(sp *Spec) (stepped bool, err error) {
	if cr.done {
		return false, nil
	}
	if cr.spend(sp) >= sp.Budget || cr.steps >= sp.MaxSteps {
		cr.markDone(sp)
		return false, nil
	}
	v, err := cr.walker.Step()
	if err != nil {
		return cr.fail(sp, fmt.Errorf("session: chain %d (%s) step %d: %w", cr.idx, sp.Walker.Name, cr.steps, err))
	}
	deg, vals, err := cr.measure(sp, v)
	if err != nil {
		return cr.fail(sp, fmt.Errorf("session: chain %d: %w", cr.idx, err))
	}
	s := cr.steps
	cr.steps++
	sampled := s >= sp.BurnIn && (sp.Thin == 1 || (s-sp.BurnIn)%sp.Thin == 0)
	cr.node, cr.sampled = v, sampled
	if sampled {
		if err := cr.retain(sp, deg, vals); err != nil {
			return cr.fail(sp, fmt.Errorf("session: chain %d: %w", cr.idx, err))
		}
	}
	// Unique queries can never exceed the node count: once the whole
	// network is cached, larger budgets are unreachable — stop. The
	// count is known in Graph mode and for transports that report
	// one (access.NodeCounter).
	if cr.ledger != nil && sp.nodes > 0 && sp.Cost == engine.CostUnique && cr.ledger.QueryCost() >= sp.nodes {
		cr.markDone(sp)
	}
	// Without a node count (Client mode, or a live transport of unknown
	// size) there is no saturation to detect, so when MaxSteps was
	// defaulted, bound the walk by its own progress instead: the
	// Graph-mode default allows 200 steps per budgeted query, so a walk
	// that has taken 200×(spend+1) steps has stopped paying — its
	// remaining budget is unreachable (e.g. a Budgeted client whose
	// budget exceeds the reachable component).
	if sp.nodes == 0 && sp.autoMaxSteps && sp.Cost == engine.CostUnique &&
		cr.steps >= 200*(cr.spend(sp)+1) {
		cr.markDone(sp)
	}
	// Hand the walker's candidate frontier to the pipelined access
	// layer as a prefetch hint. This happens after all accounting for
	// the step — warming only moves rows into the shared cache early
	// and can never change what the chain observes.
	if cr.warm != nil && cr.cands != nil {
		if ns := cr.cands.Candidates(); len(ns) > 0 {
			cr.warm.Warm(ns)
		}
	}
	return true, nil
}

// update reports the chain's last transition. Callers build it from
// the chain's fields instead of receiving it from advance: returning
// the struct up through advance made every step copy it between stack
// frames, which profiled as the step's largest bookkeeping cost.
func (cr *chainRun) update(sp *Spec) Update {
	return Update{Chain: cr.idx, Node: cr.node, Step: cr.steps, Spent: cr.spend(sp), Samples: cr.samples, Sampled: cr.sampled}
}

// fail ends the chain on a step or measurement error. A budget-exhausted
// client (access.Budgeted in Client mode) ends it cleanly; any other
// error fails it.
func (cr *chainRun) fail(sp *Spec, err error) (bool, error) {
	cr.markDone(sp)
	if errors.Is(err, access.ErrBudgetExhausted) {
		return false, nil
	}
	return false, err
}

// measure evaluates every estimator's measure attribute at v, into the
// chain's scratch buffer (valid until the next call). Graph mode reads
// the graph directly (free, like the experiment harness); Client mode
// queries the client, which costs at most one unique query since v
// lands in the cache on first touch.
func (cr *chainRun) measure(sp *Spec, v graph.Node) (int, []float64, error) {
	vals := cr.scratch
	var deg int
	if sp.Graph != nil {
		deg = sp.Graph.Degree(v)
	} else {
		d, err := cr.client.Degree(v)
		if err != nil {
			return 0, nil, err
		}
		deg = d
	}
	for e := range sp.Estimators {
		a := sp.Estimators[e].attr()
		if a == "" || a == "degree" {
			vals[e] = float64(deg)
			continue
		}
		var x float64
		var err error
		if sp.Graph != nil {
			x, err = graphMeasure(sp.Graph, a, v)
		} else {
			x, err = cr.client.Attribute(v, a)
		}
		if err != nil {
			return 0, nil, err
		}
		vals[e] = x
	}
	return deg, vals, nil
}

// graphMeasure reads attribute attr of node v straight from g, with
// "degree" (or "") the topological degree, so datasets need not
// materialize a degree attribute. The error text is the one jobs have
// always failed with; stored job logs hold it.
func graphMeasure(g *graph.Graph, attr string, v graph.Node) (float64, error) {
	if attr == "" || attr == "degree" {
		return float64(g.Degree(v)), nil
	}
	x, ok := g.AttrValue(attr, v)
	if !ok {
		return 0, fmt.Errorf("engine: graph %q lacks attribute %q", g.Name(), attr)
	}
	return x, nil
}

// retain folds one retained sample — its degree and every estimator's
// raw value — into the chain's running state: each estimator's MeanCI
// and Welford moments over the transformed value, a snapshot of those
// moments whenever the MeanCI completes a batch, the sample count and
// the checkpoint digest. Nothing else of the sample is kept.
func (cr *chainRun) retain(sp *Spec, deg int, vals []float64) error {
	h := digestWord(cr.digest, uint64(deg))
	for e := range cr.accs {
		es, a := sp.Estimators[e], &cr.accs[e]
		x := es.transform(vals[e])
		if err := a.ci.Add(x, deg); err != nil {
			return fmt.Errorf("%s: %w", es.label(), err)
		}
		a.moments.Add(x)
		if a.ci.Batches() > len(a.snaps) {
			a.snaps = append(a.snaps, a.moments)
		}
		h = digestWord(h, math.Float64bits(vals[e]))
	}
	cr.samples++
	cr.digest = h
	return nil
}

// estAcc is one estimator's running state for one chain, over the
// transformed values of its retained samples: ci is their batch-means
// estimator, moments their Welford moments, and snaps[k] the moments
// of the first (k+1)·CIBatch of them, taken as ci completed batch k.
type estAcc struct {
	ci      *estimate.MeanCI
	moments stats.Welford
	snaps   []stats.Welford
}

// merge pools chains — every chain of the run, or the sampled subset
// PartialResult reports — into the Result; run holds every chain of the
// run, which a shared-cache ledger always spans. It reads only each
// chain's running state, in chain order, so it is deterministic
// whatever the chains' scheduling:
//   - the pooled point is Σ_c ΣWF_c / Σ_c ΣW_c over the chains' MeanCI
//     sums (a one-chain point is that chain's own estimate);
//   - the interval pools the chains' completed batches;
//   - R̂ reads each chain's moments snapshot at L, the shortest chain's
//     count rounded down to a multiple of CIBatch, and is absent while
//     L < max(CIBatch, 4).
func merge(sp *Spec, run, chains []*chainRun) (*Result, error) {
	res := mergeLedger(sp, run, chains)
	design := sp.design()
	shortest := chains[0].samples
	for _, cr := range chains {
		shortest = min(shortest, cr.samples)
	}
	prefix := shortest / sp.CIBatch * sp.CIBatch
	rhat := len(chains) >= 2 && prefix >= max(sp.CIBatch, 4)
	means := make([]float64, len(chains))
	vars := make([]float64, len(chains))
	for e, es := range sp.Estimators {
		out := Estimate{Name: es.label(), Design: design}
		var sumW, sumWF float64
		var allW, allWF []float64
		for i, cr := range chains {
			a := &cr.accs[e]
			est, err := a.ci.Estimate()
			if err != nil {
				return nil, fmt.Errorf("session: chain %d produced no samples for %s", cr.idx, es.label())
			}
			out.PerChain = append(out.PerChain, est)
			w, wf := a.ci.Sums()
			sumW += w
			sumWF += wf
			bw, bwf := a.ci.Components()
			allW = append(allW, bw...)
			allWF = append(allWF, bwf...)
			out.Samples += cr.samples
			if rhat {
				m := a.snaps[prefix/sp.CIBatch-1]
				means[i], vars[i] = m.Mean(), m.Variance()
			}
		}
		out.Point = sumWF / sumW
		if iv, err := estimate.IntervalFromComponents(out.Point, sp.Confidence, allW, allWF); err == nil {
			out.Interval, out.HasInterval = iv, true
		}
		if rhat {
			if r, err := diagnostics.GelmanRubinMoments(prefix, means, vars); err == nil {
				out.GelmanRubin = r
			}
		}
		res.Estimates = append(res.Estimates, out)
	}
	return res, nil
}

// result reports the chain's accounting.
func (cr *chainRun) result(sp *Spec) ChainResult {
	c := ChainResult{
		Chain:   cr.idx,
		Seed:    cr.seed,
		Start:   cr.start,
		Steps:   cr.steps,
		Queries: cr.spend(sp),
		Samples: cr.samples,
	}
	if cr.ledger != nil {
		c.Requests = cr.ledger.TotalRequests()
	} else if tr, ok := cr.client.(requestReporter); ok {
		c.Requests = tr.TotalRequests() - cr.reqBase
	}
	return c
}

// mergeLedger builds a Result's accounting — per-chain entries, totals
// and the network ledger — for merge; it leaves Estimates empty. One
// rule covers every source: isolated chains pay the network the sum of
// their own costs, while shared chains pay once per key in the union
// of every chain's ledger (run, not only the merged subset). Only
// Pipeline, the wire-side counters, depends on scheduling.
func mergeLedger(sp *Spec, run, chains []*chainRun) *Result {
	res := &Result{}
	shared := sp.Cache == CacheShared
	for _, cr := range chains {
		c := cr.result(sp)
		res.Chains = append(res.Chains, c)
		res.TotalSteps += cr.steps
		res.TotalQueries += c.Queries
		if !shared {
			res.GlobalQueries += cr.client.QueryCost() - cr.base
			res.GlobalRequests += c.Requests
		}
	}
	if shared {
		ledgers := make([]*access.Ledger, len(run))
		local := 0
		for i, cr := range run {
			ledgers[i] = cr.ledger
			local += cr.ledger.QueryCost()
			res.GlobalRequests += cr.ledger.TotalRequests()
		}
		res.GlobalQueries = access.UniqueAcross(ledgers)
		res.CrossChainHits = local - res.GlobalQueries
		if local > 0 {
			res.CrossChainHitRate = float64(res.CrossChainHits) / float64(local)
		}
	}
	res.Pipeline = sp.pipelineStats()
	return res
}
