package session

import (
	"context"
	"errors"
	"testing"

	"histwalk/internal/core"
)

// chainCounts reads the chain lifecycle counters and the budget ledger.
func chainCounts() (started, finished, abandoned, spent int64) {
	return obsChainsStarted.Value(), obsChainsFinished.Value(), obsChainsAbandoned.Value(), obsBudgetSpent.Value()
}

// TestRunCancelCountsAbandonedChains cancels a one-worker Drive at
// chain 1's first transition, after chain 0 has finished: every
// started chain is then counted once, as finished or abandoned, and a
// second Close of a session counts nothing more.
func TestRunCancelCountsAbandonedChains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := Spec{Graph: testGraph(t), Walker: core.CNRWFactory(), Budget: 40, Chains: 4, Workers: 1, Seed: 3}
	s0, f0, a0, b0 := chainCounts()
	run, err := NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, err = run.Drive(ctx, func(u Update) {
		if u.Chain == 1 {
			cancel()
		}
	})
	run.Close()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Drive err = %v, want cancellation", err)
	}
	s1, f1, a1, b1 := chainCounts()
	if s1-s0 != 4 || f1-f0 < 1 || a1-a0 < 1 || (f1-f0)+(a1-a0) != 4 {
		t.Fatalf("chains started/finished/abandoned = %d/%d/%d, want 4 = finished + abandoned, each > 0",
			s1-s0, f1-f0, a1-a0)
	}
	if b1-b0 < int64(spec.Budget) {
		t.Fatalf("budget_spent grew %d, below the finished chain's budget %d", b1-b0, spec.Budget)
	}

	s, err := NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
	_, _, a2, _ := chainCounts()
	if a2-a1 != 4 {
		t.Fatalf("closing an unstarted session twice counted %d abandoned chains, want 4", a2-a1)
	}
}
