package main

// The batch workload: one caller runs histwalk.Run back to back over a
// heap GooglePlusN graph built during set-up. Ops cycle three equally
// weighted classes — CNRW with isolated caches, GNRW-degree over the
// shared cache, CNRW with batched stepping — each 16 chains × budget
// 1000 at the default Workers. CPU-bound walker stepping through the
// three synchronous access clients, one merge per op; no service, store
// or pipeline.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"histwalk"
)

const (
	batchChains  = 16
	batchBudget  = 1000
	batchBuilds  = 5 // graph builds per run; setup_s is their median
	batchWarmup  = 3 // untimed ops: one per class
	batchSamples = 6 // ops re-run in another mode as the output check
	// batchRate is the nominal op rate on the reference host (2 x86
	// cores); ops per run are seconds × batchRate.
	batchRate = 20.0
)

var batchClasses = []string{"cnrw-isolated", "gnrw-shared", "cnrw-batched"}

// batchSpec returns op i's spec.
func batchSpec(g *histwalk.Graph, seed int64, i int) (histwalk.Spec, error) {
	walker := "cnrw"
	if i%3 == 1 {
		walker = "gnrw-degree"
	}
	f, err := histwalk.WalkerByName(walker, histwalk.WalkerOptions{})
	if err != nil {
		return histwalk.Spec{}, err
	}
	s := histwalk.Spec{Graph: g, Walker: f, Budget: batchBudget, Chains: batchChains, Seed: opSeed(seed, "batch", i)}
	switch i % 3 {
	case 1:
		s.Cache = histwalk.CacheShared
	case 2:
		s.Stepping = histwalk.SteppingBatched
	}
	return s, nil
}

// runOutcome is one library Run: its result, error and wall time.
type runOutcome struct {
	res *histwalk.Result
	err error
	dur time.Duration
}

// batchPass runs ops [from, to) back to back, counting them into blk
// when set.
func batchPass(ctx context.Context, g *histwalk.Graph, seed int64, from, to int, blk *blocks, sp *spans) []runOutcome {
	out := make([]runOutcome, to-from)
	for i := from; i < to; i++ {
		spec, err := batchSpec(g, seed, i)
		if err != nil {
			out[i-from].err = err
			continue
		}
		t0 := time.Now()
		res, err := histwalk.Run(ctx, spec)
		d := time.Since(t0)
		if err == nil && res.TotalQueries != batchChains*batchBudget {
			err = fmt.Errorf("op %d spent %d of budget %d", i, res.TotalQueries, batchChains*batchBudget)
		}
		out[i-from] = runOutcome{res, err, d}
		if blk != nil {
			blk.opDone()
		}
		sp.add(0, "batch.run", 0, t0, t0.Add(d), map[string]any{"op": i, "class": batchClasses[i%3]})
	}
	return out
}

func runBatch(ctx context.Context, cfg *config, r *report) error {
	// Each build starts from the same clean heap: the previous graph
	// dropped and collected, so the heap holds one graph at a time.
	var builds []float64
	var g *histwalk.Graph
	for range batchBuilds {
		g = nil
		freeMemory()
		t0 := time.Now()
		g = histwalk.GooglePlusN(gplusNodes, gplusSeed)
		builds = append(builds, time.Since(t0).Seconds())
	}
	freeMemory()
	n := cfg.ops(batchRate)
	for _, o := range batchPass(ctx, g, cfg.seed, 0, batchWarmup, nil, nil) {
		if o.err != nil {
			r.fail("warm-up: %v", o.err)
		}
	}
	measure := func(sp *spans) ([]runOutcome, time.Duration, *blocks) {
		t0 := time.Now()
		blk := newBlocks(n, selfCPU)
		out := batchPass(ctx, g, cfg.seed, batchWarmup, batchWarmup+n, blk, sp)
		elapsed := time.Since(t0)
		for _, o := range out {
			r.opDone(o.err)
		}
		return out, elapsed, blk
	}

	var outs []runOutcome
	if !cfg.trace {
		var blk *blocks
		outs, _, blk = measure(nil)
		lat := make([]float64, n)
		var global, total int
		for i, o := range outs {
			lat[i] = math.Inf(1) // a failed op misses every latency limit
			if o.err == nil {
				lat[i] = ms(o.dur)
				global += o.res.GlobalQueries
				total += o.res.TotalQueries
			}
		}
		peak, err := peakRSSMB("self")
		if err != nil {
			return err
		}
		r.setEndToEnd(builds, blk, lat, peak, div(float64(global), float64(total)))
	} else {
		plain, plainElapsed, _ := measure(nil)
		sp := newSpans()
		var lib bytes.Buffer
		libTracer := histwalk.NewTracer(&lib)
		histwalk.SetTracer(libTracer)
		defer histwalk.SetTracer(nil)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var elapsed time.Duration
		outs, elapsed, _ = measure(sp)
		runtime.ReadMemStats(&m1)
		histwalk.SetTracer(nil)
		if err := libTracer.Close(); err != nil { // flushes into lib
			return err
		}
		r.set("trace.overhead_pct", (elapsed.Seconds()/plainElapsed.Seconds()-1)*100, "%", n)
		r.set("dataset.build_s", median(builds), "s", len(builds))
		r.setRuntime(&m0, &m1, n)
		perClass := make([][]float64, len(batchClasses))
		var steps int
		var xchain []float64
		for i, o := range outs {
			if o.err != nil {
				continue
			}
			if plain[i].err == nil {
				if err := sameChains(o.res, plain[i].res); err != nil {
					r.fail("op %d: traced and untraced runs differ: %v", batchWarmup+i, err)
				}
			}
			c := (batchWarmup + i) % 3
			perClass[c] = append(perClass[c], ms(o.dur))
			steps += o.res.TotalSteps
			if c == 1 {
				xchain = append(xchain, 100*o.res.CrossChainHitRate)
			}
		}
		for c, name := range batchClasses {
			r.set("session.run_ms."+name, median(perClass[c]), "ms", len(perClass[c]))
		}
		r.set("core.steps_per_s", float64(steps)/elapsed.Seconds(), "1/s", n)
		r.set("core.steps_per_op", float64(steps)/float64(n), "count", n)
		r.set("access.xchain_hit_pct", mean(xchain), "%", len(xchain))
		var specs []histwalk.Spec
		for i := batchWarmup; i < batchWarmup+batchSamples; i++ {
			spec, err := batchSpec(g, cfg.seed, i)
			if err != nil {
				return err
			}
			specs = append(specs, spec)
		}
		setReplica(ctx, r, specs, 0, 0)
		if err := sp.write(cfg.spansPath("batch")); err != nil {
			return err
		}
		if err := os.WriteFile(cfg.spansPath("batch-library"), lib.Bytes(), 0o644); err != nil {
			return err
		}
	}

	// Output check: a seeded sample re-run in another cache or stepping
	// mode must give bit-identical per-chain estimates and accounting.
	rng := rand.New(rand.NewSource(cfg.seed))
	for _, k := range rng.Perm(n)[:batchSamples] {
		o := outs[k]
		if o.err != nil {
			continue
		}
		i := batchWarmup + k
		spec, err := batchSpec(g, cfg.seed, i)
		if err != nil {
			return err
		}
		switch i % 3 {
		case 0:
			spec.Stepping = histwalk.SteppingBatched
		case 1:
			spec.Cache = histwalk.CacheIsolated
		case 2:
			spec.Stepping = histwalk.SteppingPerChain
		}
		again, err := histwalk.Run(ctx, spec)
		if err != nil {
			r.fail("op %d re-run: %v", i, err)
			continue
		}
		if err := sameChains(o.res, again); err != nil {
			r.fail("op %d (%s) re-run in another mode: %v", i, batchClasses[i%3], err)
		}
	}
	return nil
}

// sameChains checks that two Results of one spec agree bit for bit on
// every estimate and every chain's accounting — everything except the
// network-side counters, which depend on the cache topology.
func sameChains(a, b *histwalk.Result) error {
	if len(a.Estimates) != len(b.Estimates) || len(a.Chains) != len(b.Chains) {
		return fmt.Errorf("shapes differ")
	}
	for i, ea := range a.Estimates {
		eb := b.Estimates[i]
		if math.Float64bits(ea.Point) != math.Float64bits(eb.Point) || len(ea.PerChain) != len(eb.PerChain) {
			return fmt.Errorf("estimate %s: %v vs %v", ea.Name, ea.Point, eb.Point)
		}
		for c := range ea.PerChain {
			if math.Float64bits(ea.PerChain[c]) != math.Float64bits(eb.PerChain[c]) {
				return fmt.Errorf("estimate %s chain %d: %v vs %v", ea.Name, c, ea.PerChain[c], eb.PerChain[c])
			}
		}
	}
	for c := range a.Chains {
		if a.Chains[c] != b.Chains[c] {
			return fmt.Errorf("chain %d: %+v vs %+v", c, a.Chains[c], b.Chains[c])
		}
	}
	if a.TotalSteps != b.TotalSteps || a.TotalQueries != b.TotalQueries {
		return fmt.Errorf("totals differ")
	}
	return nil
}
