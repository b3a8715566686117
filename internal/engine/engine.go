// Package engine is the trial-execution substrate shared by the
// session layer and the experiment harness: a deterministic worker pool
// (Each) that fans independent seeded tasks out over goroutines, the
// seed mixer that makes each task's RNG a pure function of (master
// seed, stream, index) — see TrialSeed — and the vocabulary session
// chains are built from (CostModel, DesignFor, Measure, RandomStart).
//
// Determinism comes from two rules. First, every task's seed depends on
// its index, never on scheduling. Second, each task writes only state
// owned by its index (a session chain owns its private
// access.Simulator), so no locking is needed on the hot path and
// results are bit-identical regardless of worker count or completion
// order.
//
// A session fans its chains out on the pool, and the experiment
// figures run each trial as one session chain (session.RunChain) on
// it, reading the estimate the chain serves; cmd/repro and cmd/sampler
// expose the pool size as -workers.
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"histwalk/internal/obs"
)

// Process-wide pool counters (see internal/obs): started counts every
// task the pool dispatched, completed the ones whose fn returned
// without error. The gap between them is failures plus work currently
// in flight — a wedged daemon shows up as a gap that never closes.
var (
	obsTrialsStarted = obs.Default.Counter("histwalk_engine_trials_started_total",
		"Tasks dispatched by the worker pool.")
	obsTrialsCompleted = obs.Default.Counter("histwalk_engine_trials_completed_total",
		"Tasks that returned without error.")
)

// Options configures an Engine.
type Options struct {
	// Workers bounds the fan-out: at most Workers trials run
	// concurrently. Zero or negative selects runtime.GOMAXPROCS(0).
	Workers int
}

// Engine is a reusable worker-pool runner. The zero value is valid and
// runs with GOMAXPROCS workers; see New for configured instances.
// An Engine is safe for concurrent use.
type Engine struct {
	opts Options
}

// New returns an Engine with the given options.
func New(opts Options) *Engine { return &Engine{opts: opts} }

// Workers returns the effective pool size.
func (e *Engine) Workers() int {
	if e.opts.Workers > 0 {
		return e.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Each runs fn(ctx, i) for every i in [0, n) on the worker pool and
// waits for completion. The first error (by lowest trial index among
// failed trials) cancels the remaining work and is returned; a
// cancellation of ctx likewise stops the pool and returns the
// cancellation *cause* (context.Cause), so a caller that cancels one
// submission with a sentinel cause — e.g. a job manager cancelling a
// single job — gets that sentinel back instead of a bare
// context.Canceled. Concurrent Each calls are fully independent: each
// call derives its own cancellation scope, so cancelling or failing one
// submission never poisons a sibling running on the same Engine.
// fn must confine its writes to state owned by index i.
func (e *Engine) Each(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := e.Workers()
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return context.Cause(ctx)
			}
			obsTrialsStarted.Inc()
			if err := fn(ctx, i); err != nil {
				return err
			}
			obsTrialsCompleted.Inc()
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64 // dispatch counter
		mu       sync.Mutex   // guards firstErr/firstIdx
		firstErr error
		firstIdx = -1
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				obsTrialsStarted.Inc()
				if err := fn(ctx, i); err != nil {
					mu.Lock()
					if firstIdx < 0 || i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					cancel()
					return
				}
				obsTrialsCompleted.Inc()
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		// The pool's own cancel only fires alongside a recorded firstErr,
		// so reaching here means the caller's ctx was cancelled: report
		// its cause (context.Cause falls back to context.Canceled when no
		// explicit cause was attached).
		return context.Cause(ctx)
	}
	return nil
}
