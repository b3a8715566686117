// Command sampler runs a sampling session over a dataset (built-in
// stand-in or an edge-list file) and reports the aggregate estimate,
// its confidence interval and relative error against ground truth, and
// the query-cost accounting.
//
// Usage:
//
//	sampler -dataset yelp -algo gnrw-reviews -budget 1000 -attr reviews_count
//	sampler -edges graph.txt -algo cnrw -budget 500
//	sampler -store graph.hwg -algo cnrw -budget 500
//	sampler -dataset gplus -algo cnrw -budget 500 -chains 8 -workers 4
//	sampler -dataset gplus -algo cnrw -budget 500 -chains 16 -shared-cache
//	sampler -dataset gplus -algo cnrw -budget 500 -latency 10ms -window 32
//	sampler -endpoint http://api.example.com -start 7 -algo cnrw -budget 200 -window 32
//
// The whole run is one declarative histwalk.Spec executed by
// histwalk.Run. With -chains N > 1 the session runs N independent
// walkers (each with its own cache and budget, the practical OSN
// deployment mode) on the parallel trial-execution engine, merges
// their estimates and reports the Gelman–Rubin convergence diagnostic;
// -workers caps the pool size without changing any result.
// -shared-cache pools the chains over one cross-chain crawl cache:
// estimates and per-chain budgets are bit-identical to the default
// isolated mode, but nodes a sibling chain already fetched are free,
// so the report shows the global network cost and the cross-chain hit
// rate alongside the chain-local accounting.
//
// -store samples a packed .hwg binary graph store through the mmap
// backend: the walk starts without a text parse and the adjacency
// stays out of the heap, while every trajectory and estimate is
// bit-identical to sampling the equivalent in-memory graph (ground
// truth is read from a zero-copy view of the same mapping).
//
// -latency and -window exercise the pipelined access layer: -latency
// simulates a transport round trip per unique fetch, and -window N
// allows N speculative prefetches in flight, warming the walkers'
// candidate frontiers ahead of the walk. Every trajectory, estimate
// and query count is bit-identical for any window — the pipeline only
// changes wall-clock time, and the report adds the network-side stats
// (fetches, speculative waste, warm-hit rate). It combines with
// -shared-cache, which then reports the same ledger as without it.
//
// -endpoint crawls a live JSON neighbor-list API over HTTP instead of
// a local dataset (see internal/access/httpclient for the wire format
// and retry/backoff behavior; -auth-header/-auth-value attach a
// credential). All chains start at -start. Ground truth is unknowable
// over a remote API, so the report skips the relative-error line.
//
// Algorithms come from the shared registry (histwalk.WalkerNames) —
// the same names the histwalkd service accepts in job specs. SIGINT or
// SIGTERM cancels the run and prints the partial result accumulated so
// far instead of dying mid-walk.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"histwalk"
	"histwalk/internal/cliutil"
)

func main() {
	datasetName := flag.String("dataset", "facebook", "built-in dataset: "+strings.Join(histwalk.DatasetNames(), ", "))
	edges := flag.String("edges", "", "edge-list file (overrides -dataset)")
	store := flag.String("store", "", ".hwg graph store sampled via mmap (overrides -dataset)")
	algo := flag.String("algo", "cnrw", "algorithm: "+strings.Join(histwalk.WalkerNames(), ", "))
	budget := flag.Int("budget", 500, "unique-query budget per chain")
	attr := flag.String("attr", "degree", "measure attribute to aggregate (AVG)")
	seed := flag.Int64("seed", 1, "random seed")
	groups := flag.Int("groups", 5, "number of strata for GNRW")
	maxSteps := flag.Int("maxsteps", 0, "step cap per chain (0 = 200×budget)")
	burnIn := flag.Int("burnin", 0, "samples discarded per chain before estimating")
	chains := flag.Int("chains", 1, "independent parallel walkers (each with its own budget)")
	workers := flag.Int("workers", 0, "worker pool size for -chains > 1 (default: one per chain)")
	sharedCache := flag.Bool("shared-cache", false, "share one crawl cache across chains (identical estimates, lower global network cost)")
	window := flag.Int("window", 0, "speculative prefetch window: max in-flight speculative fetches (0 = synchronous access)")
	latency := flag.Duration("latency", 0, "simulated transport round trip per unique fetch (e.g. 10ms; pipelines the local dataset)")
	endpoint := flag.String("endpoint", "", "live crawl: base URL of a JSON neighbor-list endpoint (overrides -dataset/-edges/-store)")
	startNode := flag.Int64("start", 0, "start node for -endpoint crawls (every chain starts here)")
	authHeader := flag.String("auth-header", "", "HTTP header name attached to every -endpoint request")
	authValue := flag.String("auth-value", "", "value for -auth-header")
	traceFile := flag.String("trace", "", "write JSONL lifecycle trace spans (chain start/finish, pipeline fetches) to this file")
	flag.Parse()

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fail(fmt.Errorf("opening -trace file: %w", err))
		}
		tr := histwalk.NewTracer(f)
		histwalk.SetTracer(tr)
		// Tracing consumes no RNG and feeds nothing back into the walk:
		// the run's estimates and query costs are bit-identical with or
		// without -trace.
		defer func() {
			histwalk.SetTracer(nil)
			tr.Close()
		}()
	}

	if *chains < 1 {
		fail(fmt.Errorf("-chains must be >= 1, got %d", *chains))
	}
	if cliutil.ExplicitFlag("workers") && *workers < 1 {
		fail(fmt.Errorf("-workers must be >= 1, got %d", *workers))
	}
	if *budget < 1 {
		fail(fmt.Errorf("-budget must be >= 1, got %d", *budget))
	}

	// g is the in-memory view used for banner printing and ground
	// truth; src is the storage backend the walk runs on when -store
	// selected the out-of-core mode. In -endpoint mode there is no
	// local graph at all — the remote API is the only source.
	var src histwalk.GraphStore
	var g *histwalk.Graph
	var transport histwalk.Transport
	switch {
	case *endpoint != "":
		var err error
		transport, err = histwalk.NewHTTPTransport(histwalk.HTTPTransportConfig{
			BaseURL:    *endpoint,
			AuthHeader: *authHeader,
			AuthValue:  *authValue,
		})
		if err != nil {
			fail(err)
		}
	case *store != "":
		m, err := histwalk.OpenGraphStore(*store)
		if err != nil {
			fail(err)
		}
		defer m.Close()
		if g, err = m.Graph(); err != nil { // zero-copy view over the mapping
			fail(err)
		}
		src = m
	default:
		var err error
		if g, err = loadGraph(*edges, *datasetName, *seed); err != nil {
			fail(err)
		}
	}
	factory, err := histwalk.WalkerByName(*algo, histwalk.WalkerOptions{Groups: *groups})
	if err != nil {
		fail(err)
	}

	if g != nil {
		fmt.Printf("dataset %s: %d nodes, %d edges, avg degree %.2f\n",
			g.Name(), g.NumNodes(), g.NumEdges(), g.AvgDegree())
	} else {
		fmt.Printf("endpoint %s: live crawl from node %d\n", *endpoint, *startNode)
	}

	cache := histwalk.CacheIsolated
	if *sharedCache {
		cache = histwalk.CacheShared
	}
	spec := histwalk.Spec{
		Walker:     factory,
		Estimators: []histwalk.EstimatorSpec{{Kind: histwalk.AggMean, Attr: *attr}},
		Budget:     *budget,
		MaxSteps:   *maxSteps,
		BurnIn:     *burnIn,
		Chains:     *chains,
		Cache:      cache,
		Workers:    *workers,
		Seed:       *seed,
		Confidence: 0.95,
		Window:     *window,
		Latency:    *latency,
	}
	switch {
	case transport != nil:
		spec.Transport = transport
		spec.Start = histwalk.Node(*startNode)
	case src != nil:
		spec.Store = src
	default:
		spec.Graph = g
	}
	// Drive the run under a signal-aware context: SIGINT/SIGTERM stops
	// every chain cleanly, and whatever samples accumulated merge into
	// a partial result below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sess, err := histwalk.NewSession(spec)
	if err != nil {
		fail(err)
	}
	defer sess.Close()
	interrupted := false
	res, err := sess.Drive(ctx, nil)
	if err != nil {
		if ctx.Err() == nil {
			fail(err)
		}
		interrupted = true
		stop() // a second signal kills the process the default way
		// Merge whatever the dispatched chains retained; chains the
		// interruption reached before their first sample are omitted.
		if res, err = sess.PartialResult(); err != nil {
			fail(fmt.Errorf("interrupted before any chain retained a sample: %w", err))
		}
		fmt.Printf("interrupted — reporting the partial result of the %d chain(s) sampled so far\n", len(res.Chains))
	}

	est := res.Estimates[0]
	fmt.Printf("algorithm        %s (estimator design: %s)\n", factory.Name, est.Design)
	budgetLabel := ""
	if interrupted {
		budgetLabel = ", interrupted"
	}
	fmt.Printf("chains           %d × budget %d (workers %s%s)\n", *chains, *budget, workersLabel(*workers), budgetLabel)
	fmt.Printf("total steps      %d\n", res.TotalSteps)
	if *sharedCache {
		fmt.Printf("unique queries   %d chain-local (budgets), %d paid to the network\n", res.TotalQueries, res.GlobalQueries)
		fmt.Printf("shared cache     %d cross-chain hits (%.1f%% of chain-local queries saved)\n",
			res.CrossChainHits, 100*res.CrossChainHitRate)
	} else {
		fmt.Printf("unique queries   %d (per-chain caches)\n", res.TotalQueries)
	}
	if st := res.Pipeline; st != nil {
		fmt.Printf("network fetches  %d (%d speculative)\n", st.NetworkFetches, st.SpeculativeFetches)
		if fresh := st.DemandMisses + st.DemandJoined + st.DemandWarm; fresh > 0 {
			fmt.Printf("pipeline         window %d: %d misses, %d joined in-flight, %d warm hits (%.1f%% of fresh demands stall-free)\n",
				*window, st.DemandMisses, st.DemandJoined, st.DemandWarm,
				100*float64(st.DemandWarm)/float64(fresh))
		}
	}
	for i, c := range res.Chains {
		fmt.Printf("chain %-3d        start %d, %d steps, %d queries (%d cache hits), estimate %.4f\n",
			c.Chain, c.Start, c.Steps, c.Queries, c.Requests-c.Queries, est.PerChain[i])
	}
	if est.GelmanRubin > 0 {
		fmt.Printf("Gelman-Rubin R^  %.4f\n", est.GelmanRubin)
	}
	if est.HasInterval {
		fmt.Printf("95%% interval     [%.4f, %.4f]\n", est.Interval.Low, est.Interval.High)
	}
	if g != nil {
		truth := g.AvgDegree()
		if *attr != "degree" {
			truth, _ = g.MeanAttr(*attr)
		}
		fmt.Printf("AVG(%s)          pooled estimate %.4f, truth %.4f, relative error %.4f\n",
			*attr, est.Point, truth, histwalk.RelativeError(est.Point, truth))
	} else {
		fmt.Printf("AVG(%s)          pooled estimate %.4f (ground truth unknown over a remote endpoint)\n",
			*attr, est.Point)
	}
}

func workersLabel(w int) string {
	if w <= 0 {
		return "auto"
	}
	return fmt.Sprintf("%d", w)
}

func loadGraph(edges, name string, seed int64) (*histwalk.Graph, error) {
	if edges != "" {
		f, err := os.Open(edges)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		g, _, err := histwalk.ReadEdgeList(f)
		if err != nil {
			return nil, err
		}
		g.SetName(edges)
		return g.LargestComponent(), nil
	}
	g := histwalk.DatasetByName(name, seed)
	if g == nil {
		return nil, fmt.Errorf("unknown dataset %q (have: %s)", name, strings.Join(histwalk.DatasetNames(), ", "))
	}
	return g, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sampler:", err)
	os.Exit(1)
}
