package session

// The JSON-facing Spec representation. A Spec proper cannot travel over
// a wire: it holds a live *graph.Graph, a walker factory closure and
// predicate functions. SpecJSON is the serializable stand-in the
// sampling service (internal/service, cmd/histwalkd) accepts: datasets,
// walkers, estimators, cache policies and cost models are all chosen by
// name, and proportion predicates are expressed as a comparison
// operator plus a threshold. Spec() resolves a SpecJSON into a runnable
// Spec deterministically — two processes resolving the same bytes build
// identical runs, which is what lets a service-executed job be
// bit-identical to a local Run of the same description.

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"histwalk/internal/access/httpclient"
	"histwalk/internal/dataset"
	"histwalk/internal/engine"
	"histwalk/internal/graph"
	"histwalk/internal/graphstore"
	"histwalk/internal/registry"
)

// SpecJSON is the serializable description of one sampling run: a
// Graph-mode run over a named dataset, or — with a Transport entry of
// kind "http" — a live crawl of a remote JSON neighbor-list endpoint.
// Zero-valued optional fields select the same defaults as the
// corresponding Spec fields. Client mode (walking an in-process
// access.Client) is inherently unserializable and has no wire form.
type SpecJSON struct {
	// Dataset names the built-in dataset stand-in to sample (see
	// dataset.Names), constructed with the run's Seed — or a path to a
	// packed .hwg binary graph store, opened via mmap (the out-of-core
	// mode; the seed then only drives the walk). Results are
	// bit-identical between a packed graph and a heap graph with the
	// same contents. Required except under a Transport of kind "http",
	// which replaces the dataset with a remote endpoint.
	Dataset string `json:"dataset"`
	// Walker names the algorithm (see registry.WalkerNames).
	Walker string `json:"walker"`
	// Groups is m, the number of strata for the GNRW walkers (0 = 5).
	Groups int `json:"groups,omitempty"`
	// Estimators lists the aggregates to estimate (empty = average
	// degree).
	Estimators []EstimatorJSON `json:"estimators,omitempty"`
	// Budget is the per-chain query budget (required, >= 1).
	Budget int `json:"budget"`
	// Cost selects the budget metering: "unique" (default) or "steps".
	Cost string `json:"cost,omitempty"`
	// MaxSteps, BurnIn and Thin mirror the Spec fields.
	MaxSteps int `json:"max_steps,omitempty"`
	BurnIn   int `json:"burn_in,omitempty"`
	Thin     int `json:"thin,omitempty"`
	// Chains is the number of independent walkers (0 = 1).
	Chains int `json:"chains,omitempty"`
	// Cache selects the chains' cache topology: "isolated" (default) or
	// "shared".
	//
	// There is deliberately no Workers field: a Result is bit-identical
	// for every execution parallelism, so the knob would change nothing
	// a client can observe. The sampling service schedules chain
	// execution itself (its scaling axis is concurrent jobs, and it
	// drives chains interleaved so running estimates stay consistent).
	Cache string `json:"cache,omitempty"`
	// Stepping names the chain-advancement mode: "per-chain" (the
	// default and only mode) or "batched", a deprecated alias of it
	// kept so stored specs and their job IDs stay valid.
	Stepping string `json:"stepping,omitempty"`
	// Seed is the master seed (also seeds the dataset construction).
	Seed int64 `json:"seed"`
	// Stream is an optional seed-stream label, hashed with
	// engine.StreamID ("" = the default session stream).
	Stream string `json:"stream,omitempty"`
	// Design selects the estimator correction: "auto" (default),
	// "degree-proportional" or "uniform".
	Design string `json:"design,omitempty"`
	// Confidence is the interval level: 0.90, 0.95 or 0.99 (0 = 0.95).
	Confidence float64 `json:"confidence,omitempty"`
	// CIBatch is the batch-means batch size (0 = 50).
	CIBatch int `json:"ci_batch,omitempty"`
	// Transport, when present, selects the pipelined access layer; see
	// TransportJSON.
	Transport *TransportJSON `json:"transport,omitempty"`
}

// TransportJSON is the wire form of the access pipeline configuration:
// how chains reach the network, and how aggressively the pipeline
// speculates.
//
// Kind "sim" keeps the named dataset as the network but reads it
// through the pipelined access layer with a simulated per-fetch
// latency — the latency-hiding measurement mode. Chain trajectories,
// RNG consumption and per-chain query costs are bit-identical to the
// same spec without the transport entry, for any window and latency.
//
// Kind "http" crawls a live JSON neighbor-list endpoint (see
// internal/access/httpclient for the wire format and retry policy)
// instead of a dataset. Resolution stays deterministic — the same
// bytes build the same run — but what the remote endpoint serves is
// outside the replay guarantee.
type TransportJSON struct {
	// Kind is "sim" or "http".
	Kind string `json:"kind"`
	// Window is the speculative in-flight window (0 = no speculation;
	// the shared row cache and single-flight dedup remain).
	Window int `json:"window,omitempty"`
	// LatencyMS is the simulated per-fetch latency in milliseconds
	// (kind "sim" only).
	LatencyMS float64 `json:"latency_ms,omitempty"`
	// URL is the endpoint root, e.g. "https://api.example.com" (kind
	// "http", required).
	URL string `json:"url,omitempty"`
	// AuthHeader and AuthValue, when both set, are attached to every
	// request (kind "http").
	AuthHeader string `json:"auth_header,omitempty"`
	AuthValue  string `json:"auth_value,omitempty"`
	// Retries overrides the transient-failure retry count (0 = default,
	// negative = no retries; kind "http").
	Retries int `json:"retries,omitempty"`
	// BackoffMS overrides the base retry backoff in milliseconds (kind
	// "http").
	BackoffMS float64 `json:"backoff_ms,omitempty"`
	// Start is the chains' start node (kind "http"; a remote network
	// has no node count to draw a random start from).
	Start int64 `json:"start,omitempty"`
}

// EstimatorJSON is the serializable form of an EstimatorSpec. For
// proportions the predicate is the comparison "measured value Op
// Value", e.g. {"kind": "proportion", "attr": "degree", "op": ">=",
// "value": 10} estimates the fraction of nodes with degree >= 10.
type EstimatorJSON struct {
	// Name labels the estimate ("" derives one, e.g. "avg(degree)").
	Name string `json:"name,omitempty"`
	// Kind names the aggregate (see EstimatorNames).
	Kind string `json:"kind"`
	// Attr is the measure attribute ("" or "degree" = node degree).
	Attr string `json:"attr,omitempty"`
	// Op and Value define the proportion predicate (required for
	// proportions, rejected otherwise).
	Op    string  `json:"op,omitempty"`
	Value float64 `json:"value,omitempty"`
}

// aggregates maps wire names to Aggregate kinds. "avg" and "avgdegree"
// ride along as spellings people will inevitably try.
var aggregates = map[string]Aggregate{
	"mean":       AggMean,
	"avg":        AggMean,
	"avg-degree": AggAvgDegree,
	"avgdegree":  AggAvgDegree,
	"proportion": AggProportion,
}

// EstimatorByName resolves a wire estimator kind ("mean", "avg-degree",
// "proportion", plus the spellings "avg" and "avgdegree") to its
// Aggregate.
func EstimatorByName(kind string) (Aggregate, error) {
	a, ok := aggregates[strings.ToLower(kind)]
	if !ok {
		return 0, fmt.Errorf("session: unknown estimator kind %q (have: %s)",
			kind, strings.Join(EstimatorNames(), ", "))
	}
	return a, nil
}

// EstimatorNames lists the estimator kinds EstimatorByName accepts,
// sorted.
func EstimatorNames() []string {
	names := make([]string, 0, len(aggregates))
	for n := range aggregates {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// predicateFor builds the pure threshold predicate "x Op value".
func predicateFor(op string, value float64) (func(float64) bool, error) {
	switch op {
	case ">":
		return func(x float64) bool { return x > value }, nil
	case ">=":
		return func(x float64) bool { return x >= value }, nil
	case "<":
		return func(x float64) bool { return x < value }, nil
	case "<=":
		return func(x float64) bool { return x <= value }, nil
	case "==":
		return func(x float64) bool { return x == value }, nil
	case "!=":
		return func(x float64) bool { return x != value }, nil
	default:
		return nil, fmt.Errorf("session: unknown predicate op %q (use >, >=, <, <=, ==, !=)", op)
	}
}

// spec resolves the wire estimator into an EstimatorSpec.
func (e EstimatorJSON) spec() (EstimatorSpec, error) {
	kind, err := EstimatorByName(e.Kind)
	if err != nil {
		return EstimatorSpec{}, err
	}
	out := EstimatorSpec{Name: e.Name, Kind: kind, Attr: e.Attr}
	if kind == AggProportion {
		if e.Op == "" {
			return EstimatorSpec{}, errors.New("session: proportion estimator requires op and value")
		}
		pred, err := predicateFor(e.Op, e.Value)
		if err != nil {
			return EstimatorSpec{}, err
		}
		out.Predicate = pred
	} else if e.Op != "" {
		return EstimatorSpec{}, fmt.Errorf("session: estimator kind %q does not take a predicate op", e.Kind)
	}
	return out, nil
}

// cachePolicyByName resolves the wire cache-policy name.
func cachePolicyByName(name string) (CachePolicy, error) {
	switch strings.ToLower(name) {
	case "", "isolated":
		return CacheIsolated, nil
	case "shared":
		return CacheShared, nil
	default:
		return 0, fmt.Errorf("session: unknown cache policy %q (use isolated or shared)", name)
	}
}

// steppingByName resolves the wire stepping-mode name. "batched"
// resolves to the SteppingBatched alias, which steps per chain.
func steppingByName(name string) (SteppingMode, error) {
	switch strings.ToLower(name) {
	case "", "per-chain", "perchain":
		return SteppingPerChain, nil
	case "batched":
		return SteppingBatched, nil
	default:
		return 0, fmt.Errorf("session: unknown stepping mode %q (use per-chain or batched)", name)
	}
}

// costModelByName resolves the wire cost-model name.
func costModelByName(name string) (engine.CostModel, error) {
	switch strings.ToLower(name) {
	case "", "unique", "unique-queries":
		return engine.CostUnique, nil
	case "steps":
		return engine.CostSteps, nil
	default:
		return 0, fmt.Errorf("session: unknown cost model %q (use unique or steps)", name)
	}
}

// designByName resolves the wire design name.
func designByName(name string) (DesignChoice, error) {
	switch strings.ToLower(name) {
	case "", "auto":
		return DesignAuto, nil
	case "degree-proportional":
		return DesignDegreeProportional, nil
	case "uniform":
		return DesignUniform, nil
	default:
		return 0, fmt.Errorf("session: unknown design %q (use auto, degree-proportional or uniform)", name)
	}
}

// Spec resolves the wire form into a validated, runnable Spec. The
// resolution is deterministic: the dataset is rebuilt from its name and
// the master seed, the walker comes from the registry, and no state
// outside w is consulted — so Run on the returned Spec is bit-identical
// wherever the same SpecJSON is resolved.
func (w SpecJSON) Spec() (Spec, error) {
	httpMode := w.Transport != nil && strings.EqualFold(w.Transport.Kind, "http")
	if httpMode && w.Dataset != "" {
		return Spec{}, errors.New("session: an http transport replaces the dataset; set exactly one of them")
	}
	if !httpMode && w.Dataset == "" {
		return Spec{}, fmt.Errorf("session: wire spec requires a dataset (have: %s)",
			strings.Join(dataset.Names(), ", "))
	}
	var src graphstore.Store
	if !httpMode {
		var err error
		src, err = dataset.OpenStore(w.Dataset, w.Seed)
		if err != nil {
			if dataset.IsStoreFile(w.Dataset) {
				return Spec{}, fmt.Errorf("session: opening graph store %q: %w", w.Dataset, err)
			}
			return Spec{}, fmt.Errorf("session: unknown dataset %q (have: %s)",
				w.Dataset, strings.Join(dataset.Names(), ", "))
		}
	}
	factory, err := registry.WalkerByName(w.Walker, registry.WalkerOptions{Groups: w.Groups})
	if err != nil {
		return Spec{}, err
	}
	cache, err := cachePolicyByName(w.Cache)
	if err != nil {
		return Spec{}, err
	}
	stepping, err := steppingByName(w.Stepping)
	if err != nil {
		return Spec{}, err
	}
	cost, err := costModelByName(w.Cost)
	if err != nil {
		return Spec{}, err
	}
	design, err := designByName(w.Design)
	if err != nil {
		return Spec{}, err
	}
	var ests []EstimatorSpec
	for i, e := range w.Estimators {
		es, err := e.spec()
		if err != nil {
			return Spec{}, fmt.Errorf("session: estimator %d: %w", i, err)
		}
		ests = append(ests, es)
	}
	var stream uint64
	if w.Stream != "" {
		stream = engine.StreamID(w.Stream)
	}
	spec := Spec{
		Walker:     factory,
		Design:     design,
		Estimators: ests,
		Budget:     w.Budget,
		Cost:       cost,
		MaxSteps:   w.MaxSteps,
		BurnIn:     w.BurnIn,
		Thin:       w.Thin,
		Chains:     w.Chains,
		Cache:      cache,
		Stepping:   stepping,
		Seed:       w.Seed,
		Stream:     stream,
		Confidence: w.Confidence,
		CIBatch:    w.CIBatch,
	}
	if w.Transport != nil {
		t := w.Transport
		spec.Window = t.Window
		switch strings.ToLower(t.Kind) {
		case "sim":
			if t.URL != "" || t.AuthHeader != "" || t.AuthValue != "" || t.Retries != 0 || t.BackoffMS != 0 || t.Start != 0 {
				return Spec{}, errors.New("session: transport kind \"sim\" takes only window and latency_ms")
			}
			if t.LatencyMS < 0 {
				return Spec{}, errors.New("session: transport latency_ms must be >= 0")
			}
			spec.Latency = time.Duration(t.LatencyMS * float64(time.Millisecond))
		case "http":
			if t.LatencyMS != 0 {
				return Spec{}, errors.New("session: transport kind \"http\" has real latency; latency_ms applies to \"sim\"")
			}
			hc, err := httpclient.New(httpclient.Config{
				BaseURL:     t.URL,
				AuthHeader:  t.AuthHeader,
				AuthValue:   t.AuthValue,
				MaxRetries:  t.Retries,
				BackoffBase: time.Duration(t.BackoffMS * float64(time.Millisecond)),
			})
			if err != nil {
				return Spec{}, fmt.Errorf("session: transport: %w", err)
			}
			spec.Transport = hc
			spec.Start = graph.Node(t.Start)
		default:
			return Spec{}, fmt.Errorf("session: unknown transport kind %q (use sim or http)", t.Kind)
		}
	}
	// Built-in names resolve to a heap graph and populate Graph (so
	// callers inspecting the concrete dataset keep working); .hwg paths
	// resolve to the mmap backend and populate Store.
	if g, ok := src.(*graph.Graph); ok {
		spec.Graph = g
	} else if src != nil {
		spec.Store = src
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}
