package session

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"histwalk/internal/access"
	"histwalk/internal/graph"
)

// TestNextContextAlreadyCancelled drives a fresh Session with a dead
// ctx: no transition may happen and the cancellation cause must
// surface.
func TestNextContextAlreadyCancelled(t *testing.T) {
	g := testGraph(t)
	s, err := NewSession(baseSpec(g))
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("deadline blown")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	u, ok, err := s.NextContext(ctx)
	if !errors.Is(err, cause) || ok {
		t.Fatalf("NextContext = %+v, %v, %v; want the cancellation cause", u, ok, err)
	}
	if s.Done() {
		t.Fatal("cancelled stepping marked the session done")
	}
	// The session must remain drivable with a live ctx.
	if _, ok, err := s.NextContext(context.Background()); err != nil || !ok {
		t.Fatalf("session did not survive a cancelled step: ok=%v err=%v", ok, err)
	}
}

// TestDriveMatchesRun runs one spec through Run, through a
// single-goroutine Next loop, and through Drive at several worker
// counts: all Results must be bit-identical.
func TestDriveMatchesRun(t *testing.T) {
	g := testGraph(t)
	spec := baseSpec(g)
	spec.Estimators = []EstimatorSpec{
		{Kind: AggAvgDegree},
		{Kind: AggMean, Attr: "score"},
	}
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 6} {
		sp := spec
		sp.Workers = workers
		s, err := NewSession(sp)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		lastSpent := map[int]int{}
		got, err := s.Drive(context.Background(), func(u Update) {
			mu.Lock()
			defer mu.Unlock()
			if u.Spent < lastSpent[u.Chain] {
				t.Errorf("chain %d spent went backwards: %d after %d", u.Chain, u.Spent, lastSpent[u.Chain])
			}
			lastSpent[u.Chain] = u.Spent
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: Drive result differs from Run:\n%+v\nvs\n%+v", workers, want, got)
		}
		if len(lastSpent) != spec.Chains {
			t.Fatalf("workers=%d: updates covered %d chains, want %d", workers, len(lastSpent), spec.Chains)
		}
	}
}

// TestDriveCancelledKeepsPartialState cancels a Drive mid-run: the
// cause comes back, the accumulated samples survive, and a second Drive
// finishes the run to the exact same Result an uninterrupted run
// produces.
func TestDriveCancelledKeepsPartialState(t *testing.T) {
	g := testGraph(t)
	spec := baseSpec(g)
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("operator hit Ctrl-C")
	ctx, cancel := context.WithCancelCause(context.Background())
	var once sync.Once
	steps := 0
	_, err = s.Drive(ctx, func(Update) {
		steps++
		if steps >= 25 {
			once.Do(func() { cancel(cause) })
		}
	})
	if !errors.Is(err, cause) {
		t.Fatalf("Drive err = %v, want the cancellation cause", err)
	}
	if s.Done() {
		t.Fatal("session claims completion after a cancelled drive")
	}

	// Resume and finish: interruption must not have altered any chain.
	got, err := s.Drive(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("resumed result differs from uninterrupted run:\n%+v\nvs\n%+v", want, got)
	}
}

// TestDriveAlreadyCancelled mirrors the NextContext test at the Drive
// level: a dead ctx yields its cause and zero transitions.
func TestDriveAlreadyCancelled(t *testing.T) {
	g := testGraph(t)
	s, err := NewSession(baseSpec(g))
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("never started")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	moved := false
	if _, err := s.Drive(ctx, func(Update) { moved = true }); !errors.Is(err, cause) {
		t.Fatalf("Drive err = %v, want cause", err)
	}
	if moved {
		t.Fatal("Drive stepped a chain under a dead ctx")
	}
}

// TestRunReturnsCancellationCause mirrors the engine's cause test at
// the Run level: cancelling Run's ctx with a sentinel cause must
// surface that sentinel, not a bare context.Canceled.
func TestRunReturnsCancellationCause(t *testing.T) {
	g := testGraph(t)
	spec := baseSpec(g)
	spec.Chains = 4
	cause := errors.New("job cancelled by the manager")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if _, err := Run(ctx, spec); !errors.Is(err, cause) {
		t.Fatalf("Run err = %v, want the sentinel cause", err)
	}
}

// TestPartialResultSkipsUnsampledChains interrupts a run so fast that
// most chains never start: PartialResult must merge the sampled subset
// (with original chain indices) where Result refuses.
func TestPartialResultSkipsUnsampledChains(t *testing.T) {
	g := testGraph(t)
	spec := baseSpec(g)
	spec.Chains = 8
	spec.Workers = 1 // serial dispatch: cancelling early strands later chains
	s, err := NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("ctrl-c")
	seen := 0
	if _, err := s.Drive(ctx, func(Update) {
		if seen++; seen >= 10 {
			cancel(cause) // chain 0 is mid-flight; chains 1..7 untouched
		}
	}); !errors.Is(err, cause) {
		t.Fatalf("Drive err = %v", err)
	}
	if _, err := s.Result(); err == nil {
		t.Fatal("Result merged despite unsampled chains")
	}
	res, err := s.PartialResult()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chains) == 0 || len(res.Chains) >= spec.Chains {
		t.Fatalf("partial merge covered %d/%d chains", len(res.Chains), spec.Chains)
	}
	for i, c := range res.Chains {
		if c.Samples == 0 {
			t.Fatalf("partial merge included unsampled chain %d", c.Chain)
		}
		if i > 0 && c.Chain <= res.Chains[i-1].Chain {
			t.Fatal("partial chains out of original order")
		}
	}
	if got := len(res.Estimates[0].PerChain); got != len(res.Chains) {
		t.Fatalf("PerChain has %d entries for %d chains", got, len(res.Chains))
	}

	// Finishing the run afterwards restores the full, bit-exact Result.
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Drive(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("resumed run after partial merge diverged from direct Run")
	}
	full, err := s.PartialResult()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, got) {
		t.Fatal("PartialResult of a finished session differs from Result")
	}
}

// TestPartialResultSharedLedgerSpansRun interrupts a shared-cache run
// while one chain is still in burn-in: PartialResult merges only the
// sampled chain, but its network ledger must count every chain's
// queries, including the burn-in chain's.
func TestPartialResultSharedLedgerSpansRun(t *testing.T) {
	g := testGraph(t)
	spec := baseSpec(g)
	spec.Chains = 4
	spec.Workers = 1 // serial dispatch: chain 0 finishes before chain 1 starts
	spec.BurnIn = 20
	spec.Cache = CacheShared
	s, err := NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("ctrl-c")
	if _, err := s.Drive(ctx, func(u Update) {
		if u.Chain == 1 && u.Step == 5 {
			cancel(cause) // chain 1 has queried but retained nothing
		}
	}); !errors.Is(err, cause) {
		t.Fatalf("Drive err = %v", err)
	}
	res, err := s.PartialResult()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chains) != 1 || res.Chains[0].Chain != 0 {
		t.Fatalf("partial merge covered chains %+v, want chain 0 only", res.Chains)
	}

	// The whole run's ledger, counted node by node over every chain.
	distinct, local, requests := 0, 0, 0
	for u := 0; u < g.NumNodes(); u++ {
		for _, cr := range s.chains {
			if cr.client.(access.CacheAware).IsCached(graph.Node(u)) {
				distinct++
				break
			}
		}
	}
	for _, cr := range s.chains {
		local += cr.ledger.QueryCost()
		requests += cr.ledger.TotalRequests()
	}
	if s.chains[1].ledger.QueryCost() == 0 {
		t.Fatal("chain 1 issued no queries before the interruption")
	}
	if res.GlobalQueries != distinct {
		t.Fatalf("GlobalQueries = %d, want %d distinct nodes over all chains", res.GlobalQueries, distinct)
	}
	if res.GlobalQueries+res.CrossChainHits != local || local <= res.TotalQueries {
		t.Fatalf("ledger %d global + %d hits, want the run's %d chain-local queries (sampled chains spent %d)",
			res.GlobalQueries, res.CrossChainHits, local, res.TotalQueries)
	}
	if res.GlobalRequests != requests || requests <= res.Chains[0].Requests {
		t.Fatalf("GlobalRequests = %d, want the run's %d (sampled chain made %d)",
			res.GlobalRequests, requests, res.Chains[0].Requests)
	}
	if want := float64(res.CrossChainHits) / float64(local); res.CrossChainHitRate != want {
		t.Fatalf("CrossChainHitRate = %v, want %v", res.CrossChainHitRate, want)
	}
}
