package main

// The crawl workload: histwalk.Run over NewHTTPTransport against a fake
// social API — HTTPTransportHandler over a packed Yelp stand-in, in its
// own process, holding every response for a fixed 5 ms. Two crawls run
// at once in a closed loop. It drives the latency-bound Prefetcher
// (speculation, single-flight dedup) and the HTTP client's JSON
// decoding; walker compute is a small share.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"histwalk"
)

const (
	crawlNodes        = 12000 // YelpN size: average degree 14.5
	crawlChains       = 4
	crawlBudget       = 50
	crawlWindow       = 16
	crawlDelay        = 5 * time.Millisecond
	crawlClients      = 2
	crawlWarmupPerCli = 3 // untimed ops per client: one per walker
	crawlSetups       = 9 // transport set-ups per run; setup_s is their median
	crawlSamples      = 4 // ops re-run over a local transport as the output check
	crawlGraphFile    = "yelp.hwg"
	// crawlRate is the nominal op rate on the reference host (2 x86
	// cores); ops per run are seconds × crawlRate, but at least the
	// 200-op floor, which sets crawl's length up to --seconds 40.
	crawlRate = 5.0
)

var crawlWalkers = []string{"cnrw", "gnrw-degree", "srw"}

// crawlSpec returns op i's spec over transport t: its walker, seed and
// start node all derive from the workload seed.
func crawlSpec(st histwalk.GraphStore, t histwalk.Transport, seed int64, i int) (histwalk.Spec, error) {
	f, err := histwalk.WalkerByName(crawlWalkers[i%3], histwalk.WalkerOptions{})
	if err != nil {
		return histwalk.Spec{}, err
	}
	s := opSeed(seed, "crawl", i)
	rng := rand.New(rand.NewSource(s))
	start := histwalk.Node(rng.Intn(st.NumNodes()))
	for st.Degree(start) == 0 {
		start = histwalk.Node(rng.Intn(st.NumNodes()))
	}
	return histwalk.Spec{
		Transport: t, Start: start, Walker: f,
		Budget: crawlBudget, Chains: crawlChains, Window: crawlWindow, Seed: s,
	}, nil
}

// fetchLog collects the Fetch times of every op in a pass.
type fetchLog struct {
	mu sync.Mutex
	ms []float64
}

// timedTransport times every Fetch of one op through the wrapped
// Transport.
type timedTransport struct {
	inner histwalk.Transport
	log   *fetchLog
	sp    *spans
	op    int // the op span fetches belong to
}

func (t *timedTransport) Fetch(ctx context.Context, u histwalk.Node) (histwalk.Row, error) {
	t0 := time.Now()
	row, err := t.inner.Fetch(ctx, u)
	d := time.Since(t0)
	t.log.mu.Lock()
	t.log.ms = append(t.log.ms, ms(d))
	t.log.mu.Unlock()
	t.sp.add(0, "transport.fetch", t.op, t0, t0.Add(d), map[string]any{"node": int64(u)})
	return row, err
}

// apiStats is the fake API's request ledger.
type apiStats struct {
	Requests  int64   `json:"requests"`
	HandlerMS float64 `json:"handler_p50_ms"` // the handler's render time per node
}

func getStats(hc *http.Client, base string) (apiStats, error) {
	var st apiStats
	resp, err := hc.Get(base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

func runCrawl(ctx context.Context, cfg *config, r *report) error {
	// Fixtures, outside every timer.
	path := filepath.Join(cfg.work, crawlGraphFile)
	t0 := time.Now()
	g := histwalk.YelpN(crawlNodes, cfg.seed)
	buildS := time.Since(t0).Seconds()
	if err := histwalk.WriteGraphStore(path, g); err != nil {
		return err
	}
	g = nil
	if _, err := os.ReadFile(path); err != nil { // into the page cache
		return err
	}
	st, err := histwalk.OpenGraphStore(path)
	if err != nil {
		return err
	}
	defer st.Close()
	self, err := os.Executable()
	if err != nil {
		return err
	}
	api, line, _, err := startChild(exec.Command(self, "serve-api", "-graph", path),
		"listening on ", 30*time.Second)
	if err != nil {
		return err
	}
	defer api.stop(10 * time.Second)
	base := strings.TrimSpace(line[strings.Index(line, "http://"):])
	ctl := &http.Client{}
	freeMemory()

	// setup_s: transport construction through its first upstream fetch.
	var setups []float64
	var tr *histwalk.HTTPTransport
	first, err := crawlSpec(st, nil, cfg.seed, 0)
	if err != nil {
		return err
	}
	for range crawlSetups {
		t0 := time.Now()
		tr, err = histwalk.NewHTTPTransport(histwalk.HTTPTransportConfig{BaseURL: base})
		if err != nil {
			return err
		}
		if _, err := tr.Fetch(ctx, first.Start); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	warm := crawlClients * crawlWarmupPerCli
	n := cfg.ops(crawlRate)
	// pass runs ops [from, to) on the closed-loop clients; wrap, when
	// set, wraps each op's transport.
	pass := func(from, to int, wrap func(op int) histwalk.Transport, blk *blocks, sp *spans) []runOutcome {
		out := make([]runOutcome, to-from)
		closedLoop(from, to, crawlClients, func(i int) {
			id := sp.id()
			var t histwalk.Transport = tr
			if wrap != nil {
				t = wrap(id)
			}
			o := &out[i-from]
			spec, err := crawlSpec(st, t, cfg.seed, i)
			if err != nil {
				o.err = err
				return
			}
			t0 := time.Now()
			o.res, o.err = histwalk.Run(ctx, spec)
			o.dur = time.Since(t0)
			if o.err == nil && o.res.TotalQueries != crawlChains*crawlBudget {
				o.err = fmt.Errorf("op %d spent %d of budget %d", i, o.res.TotalQueries, crawlChains*crawlBudget)
			}
			if blk != nil {
				blk.opDone()
			}
			sp.add(id, "crawl.run", 0, t0, t0.Add(o.dur), map[string]any{"op": i, "walker": crawlWalkers[i%3]})
		})
		return out
	}
	for _, o := range pass(0, warm, nil, nil, nil) {
		if o.err != nil {
			r.fail("warm-up: %v", o.err)
		}
	}
	type measured struct {
		outs     []runOutcome
		elapsed  time.Duration
		blk      *blocks
		upstream int64
	}
	measure := func(wrap func(int) histwalk.Transport, sp *spans) (measured, error) {
		s0, err := getStats(ctl, base)
		if err != nil {
			return measured{}, err
		}
		t0 := time.Now()
		m := measured{blk: newBlocks(n, selfCPU)}
		m.outs = pass(warm, warm+n, wrap, m.blk, sp)
		m.elapsed = time.Since(t0)
		s1, err := getStats(ctl, base)
		if err != nil {
			return measured{}, err
		}
		m.upstream = s1.Requests - s0.Requests
		for _, o := range m.outs {
			r.opDone(o.err)
		}
		return m, nil
	}

	var m measured
	if !cfg.trace {
		if m, err = measure(nil, nil); err != nil {
			return err
		}
		lat := make([]float64, n)
		var queries int
		for i, o := range m.outs {
			lat[i] = math.Inf(1) // a failed op misses every latency limit
			if o.err == nil {
				lat[i] = ms(o.dur)
				queries += o.res.TotalQueries
			}
		}
		peak, err := peakRSSMB("self")
		if err != nil {
			return err
		}
		r.setEndToEnd(setups, m.blk, lat, peak, div(float64(m.upstream), float64(queries)))
	} else {
		plain, err := measure(nil, nil)
		if err != nil {
			return err
		}
		sp := newSpans()
		var lib bytes.Buffer
		libTracer := histwalk.NewTracer(&lib)
		histwalk.SetTracer(libTracer)
		defer histwalk.SetTracer(nil)
		fetches := &fetchLog{}
		wrap := func(op int) histwalk.Transport {
			return &timedTransport{inner: tr, log: fetches, sp: sp, op: op}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		retries0, err := libCounter("histwalk_http_retries_total")
		if err != nil {
			return err
		}
		if m, err = measure(wrap, sp); err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		retries1, err := libCounter("histwalk_http_retries_total")
		if err != nil {
			return err
		}
		histwalk.SetTracer(nil)
		if err := libTracer.Close(); err != nil { // flushes into lib
			return err
		}
		stats, err := getStats(ctl, base)
		if err != nil {
			return err
		}
		r.set("trace.overhead_pct", (m.elapsed.Seconds()/plain.elapsed.Seconds()-1)*100, "%", n)
		r.set("dataset.build_s", buildS, "s", 1)
		r.setRuntime(&m0, &m1, n)
		fetchMs := median(fetches.ms)
		r.set("access.fetch_ms", fetchMs, "ms", len(fetches.ms))
		r.set("access.fetch_overhead_ms", fetchMs-ms(crawlDelay), "ms", len(fetches.ms))
		r.set("upstream.handler_ms", stats.HandlerMS, "ms", st.NumNodes())
		r.set("httpclient.retries", retries1-retries0, "count", n)
		var steps, miss, join, warmHits, speculative, network int
		var xchain []float64
		for i, o := range m.outs {
			if o.err != nil {
				continue
			}
			if p := plain.outs[i]; p.err == nil {
				if err := sameChains(o.res, p.res); err != nil {
					r.fail("op %d: traced and untraced crawls differ: %v", warm+i, err)
				}
			}
			steps += o.res.TotalSteps
			xchain = append(xchain, 100*o.res.CrossChainHitRate)
			if p := o.res.Pipeline; p != nil {
				miss += p.DemandMisses
				join += p.DemandJoined
				warmHits += p.DemandWarm
				speculative += p.SpeculativeFetches
				network += p.NetworkFetches
			}
		}
		demands := float64(miss + join + warmHits)
		r.set("access.demand_miss_pct", 100*div(float64(miss), demands), "%", n)
		r.set("access.join_pct", 100*div(float64(join), demands), "%", n)
		r.set("access.warm_pct", 100*div(float64(warmHits), demands), "%", n)
		r.set("access.speculative_pct", 100*div(float64(speculative), float64(network)), "%", n)
		r.set("access.xchain_hit_pct", mean(xchain), "%", len(xchain))
		r.set("core.steps_per_s", float64(steps)/m.elapsed.Seconds(), "1/s", n)
		r.set("core.steps_per_op", float64(steps)/float64(n), "count", n)
		var specs []histwalk.Spec
		for i := warm; i < warm+3; i++ {
			spec, err := crawlSpec(st, tr, cfg.seed, i)
			if err != nil {
				return err
			}
			specs = append(specs, spec)
		}
		setReplica(ctx, r, specs, 0, 0)
		if err := sp.write(cfg.spansPath("crawl")); err != nil {
			return err
		}
		if err := os.WriteFile(cfg.spansPath("crawl-library"), lib.Bytes(), 0o644); err != nil {
			return err
		}
	}

	// Output check: a seeded sample must equal the same spec run over a
	// local transport on the same graph with speculation off.
	rng := rand.New(rand.NewSource(cfg.seed))
	for _, k := range rng.Perm(n)[:crawlSamples] {
		o := m.outs[k]
		if o.err != nil {
			continue
		}
		i := warm + k
		spec, err := crawlSpec(st, histwalk.NewSimTransport(st, 0), cfg.seed, i)
		if err != nil {
			return err
		}
		spec.Window = 0
		local, err := histwalk.Run(ctx, spec)
		if err != nil {
			r.fail("op %d local re-run: %v", i, err)
			continue
		}
		if err := sameChains(o.res, local); err != nil {
			r.fail("op %d (%s) differs from a local crawl of the same graph: %v", i, crawlWalkers[i%3], err)
		}
	}
	return nil
}

// libCounter reads a counter of this process's metrics registry.
func libCounter(name string) (float64, error) {
	var b strings.Builder
	if err := histwalk.MetricsDefault.WritePrometheus(&b); err != nil {
		return 0, err
	}
	s, err := parseProm(strings.NewReader(b.String()))
	if err != nil {
		return 0, err
	}
	return s.samples[name], nil
}

// serveAPI is the fake social API process: HTTPTransportHandler over a
// packed graph, holding every response for crawlDelay, with a request
// ledger at /stats. The handler renders every node's response once at
// start and the API replays them from memory, so its own CPU per
// request stays small next to the crawler's on the shared host; the
// render time per node is what /stats reports as the handler time.
func serveAPI(args []string) error {
	fs := flag.NewFlagSet("serve-api", flag.ContinueOnError)
	path := fs.String("graph", "", "packed .hwg graph to serve")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := histwalk.OpenGraphStore(*path)
	if err != nil {
		return err
	}
	defer st.Close()
	inner := histwalk.HTTPTransportHandler(st)
	type page struct {
		status int
		header http.Header
		body   []byte
	}
	pages := make([]page, st.NumNodes())
	render := make([]float64, len(pages))
	for u := range pages {
		rec := httptest.NewRecorder()
		t0 := time.Now()
		inner.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/neighbors/"+strconv.Itoa(u), nil))
		render[u] = ms(time.Since(t0))
		pages[u] = page{rec.Code, rec.Header(), rec.Body.Bytes()}
	}
	stats := apiStats{HandlerMS: median(render)}
	var requests atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/neighbors/{id}", func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		time.Sleep(crawlDelay)
		u, err := strconv.Atoi(r.PathValue("id"))
		if err != nil || u < 0 || u >= len(pages) {
			inner.ServeHTTP(w, r)
			return
		}
		p := pages[u]
		for k, v := range p.header {
			w.Header()[k] = v
		}
		w.WriteHeader(p.status)
		_, _ = w.Write(p.body)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		st := stats
		st.Requests = requests.Load()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(st)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "fake API listening on http://%s\n", ln.Addr())
	if err := out.Flush(); err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// The crawler has finished. A graceful Shutdown would wait out the
	// connections its HTTP client dialed but never used.
	return srv.Close()
}
