package session

// Context-aware stepping. Next (session.go) is the minimal
// single-goroutine stepper; the sampling service, the CLIs and the
// experiment harness need three more shapes: a stepper that honors
// cancellation between transitions (NextContext), a run to completion
// that fans a Session's chains over the worker-pool engine while
// streaming serialized Updates (Drive), and a run of one chain of a
// spec on the calling goroutine (RunChain). Drive and RunChain step
// their chains through one loop, chainRun.run. NextContext and Drive
// leave the Session's accumulated samples intact on cancellation, so
// Result can still merge a partial outcome — the mechanism behind
// "Ctrl-C prints the partial estimate" in cmd/sampler and job
// cancellation in the service.
//
// Every cancellation check is a non-blocking receive on ctx.Done(),
// which takes no lock; ctx.Err() would lock the context on every step,
// and under Drive all workers share the engine's derived context.

import (
	"context"
	"fmt"
	"sync"

	"histwalk/internal/engine"
)

// NextContext is Next with cancellation: it fails with the ctx's
// cancellation cause before performing a transition once ctx is done.
// The Session remains valid after a cancellation — stepping can resume
// with a live ctx, and Result can merge what accumulated so far.
func (s *Session) NextContext(ctx context.Context) (u Update, ok bool, err error) {
	if ctx != nil {
		select {
		case <-ctx.Done():
			return Update{}, false, context.Cause(ctx)
		default:
		}
	}
	return s.Next()
}

// Drive runs every chain to completion on the worker-pool engine
// (Spec.Workers concurrent chains) and returns the final Result, which
// is bit-identical to Run's for the same Spec. onUpdate, when non-nil,
// observes every transition; calls are serialized (never concurrent),
// each chain's updates arrive in order with monotonically non-decreasing
// Spent, but the interleaving across chains depends on scheduling —
// only the interleaving, never any chain's content. Spec.Progress, when
// set, additionally receives chain-completion snapshots exactly as in
// Run.
//
// On cancellation Drive returns the ctx cause after all chains have
// stopped (no goroutine keeps stepping), and the Session still holds
// every sample retained up to that point: call Result for the partial
// outcome, or Drive again with a live ctx to finish the run. Drive must
// not run concurrently with Next or with another Drive on the same
// Session.
func (s *Session) Drive(ctx context.Context, onUpdate func(Update)) (*Result, error) {
	if s.batch != nil {
		return s.driveBatched(ctx, onUpdate)
	}
	sp := s.sp
	var observe func(Update) error
	if onUpdate != nil {
		var mu sync.Mutex // serializes onUpdate across chains
		observe = func(u Update) error {
			mu.Lock()
			onUpdate(u)
			mu.Unlock()
			return nil
		}
	}
	var hook func(done, total int)
	if sp.Progress != nil {
		hook = func(done, total int) {
			sp.Progress(Progress{Chains: total, ChainsDone: done})
		}
	}
	eng := engine.New(engine.Options{Workers: sp.Workers, Progress: hook})
	err := eng.Each(ctx, len(s.chains), func(ctx context.Context, c int) error {
		return s.chains[c].run(ctx, sp, observe)
	})
	if err != nil {
		return nil, err
	}
	return s.Result()
}

// RunChain builds chain c of spec exactly as NewSession(spec) does —
// seed, RNG, start node, client and walker — and advances it to its
// stop condition on the calling goroutine, through the loop Drive
// steps every chain with. observe, when non-nil, sees each transition
// in order; an error from it stops the chain and is returned.
//
// The chain measures the spec's estimators on every step, as a
// Session chain does (in Client mode that is part of the budget
// spend), but retains no sample: RunChain merges nothing, so its
// memory stays flat in the walk's length. The returned ChainResult
// equals Run(spec).Chains[c] except that Samples is 0. Spec.Stepping,
// Workers and Progress do not apply to a single chain.
func RunChain(ctx context.Context, spec Spec, c int, observe func(Update) error) (ChainResult, error) {
	sp, err := normalize(spec)
	if err != nil {
		return ChainResult{}, err
	}
	defer sp.closePipe()
	if c < 0 || c >= sp.Chains {
		return ChainResult{}, fmt.Errorf("session: chain %d outside the spec's %d chains", c, sp.Chains)
	}
	cr, err := newChain(sp, c)
	if err != nil {
		return ChainResult{}, err
	}
	shareStrata(sp, []*chainRun{cr})
	cr.discard = true
	err = cr.run(ctx, sp, observe)
	if !cr.done {
		cr.abandon(sp)
	}
	if err != nil {
		return ChainResult{}, err
	}
	return cr.result(sp), nil
}

// run advances the chain until it reaches a stop condition: the one
// per-chain loop behind Drive and RunChain. observe, when non-nil, sees
// every transition, and its error stops the chain. A cancelled ctx
// stops it before the next transition with the ctx's cause.
func (cr *chainRun) run(ctx context.Context, sp *Spec, observe func(Update) error) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for !cr.done {
		select {
		case <-done:
			return context.Cause(ctx)
		default:
		}
		stepped, err := cr.advance(sp)
		if err != nil {
			return err
		}
		if stepped && observe != nil {
			if err := observe(cr.update(sp)); err != nil {
				return err
			}
		}
	}
	return nil
}

// driveBatched is Drive for SteppingBatched sessions: one goroutine
// walks the lockstep rounds to completion, so onUpdate needs no lock
// and the update interleaving is the deterministic round order
// (ascending current node within each round) instead of scheduler-
// dependent. Cancellation semantics match Drive's: the Session keeps
// all state accumulated so far — including the position inside a
// partially-completed round — and a later Drive with a live ctx
// resumes exactly where it stopped.
func (s *Session) driveBatched(ctx context.Context, onUpdate func(Update)) (*Result, error) {
	for {
		u, ok, err := s.NextContext(ctx)
		if err != nil {
			return nil, err
		}
		if !ok {
			return s.Result()
		}
		if onUpdate != nil {
			onUpdate(u)
		}
	}
}
