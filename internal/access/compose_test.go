package access

import (
	"errors"
	"testing"
	"time"

	"histwalk/internal/graph"
)

// TestBudgetedExhaustionAllMethods checks that once the budget is
// spent, every Client method reports ErrBudgetExhausted for requests
// that would need a fresh query — including the Attribute and
// Summary* paths — while cached data stays accessible.
func TestBudgetedExhaustionAllMethods(t *testing.T) {
	type call struct {
		name    string
		do      func(c Client) error
		wantErr error // nil = must succeed
	}
	cases := []call{
		{"Neighbors new node", func(c Client) error { _, err := c.Neighbors(3); return err }, ErrBudgetExhausted},
		{"Degree new node", func(c Client) error { _, err := c.Degree(3); return err }, ErrBudgetExhausted},
		{"Attribute new node", func(c Client) error { _, err := c.Attribute(3, "age"); return err }, ErrBudgetExhausted},
		{"SummaryAttr uncached owner", func(c Client) error { _, err := c.SummaryAttr(3, 0, "age"); return err }, ErrBudgetExhausted},
		{"SummaryDegree uncached owner", func(c Client) error { _, err := c.SummaryDegree(3, 0); return err }, ErrBudgetExhausted},
		{"Neighbors cached node", func(c Client) error { _, err := c.Neighbors(0); return err }, nil},
		{"Degree cached node", func(c Client) error { _, err := c.Degree(1); return err }, nil},
		{"Attribute cached node", func(c Client) error { _, err := c.Attribute(0, "age"); return err }, nil},
		{"SummaryAttr cached owner", func(c Client) error { _, err := c.SummaryAttr(0, 1, "age"); return err }, nil},
		{"SummaryDegree cached owner", func(c Client) error { _, err := c.SummaryDegree(1, 0); return err }, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBudgeted(NewSimulator(testGraph(t)), 2)
			if _, err := b.Neighbors(0); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Neighbors(1); err != nil {
				t.Fatal(err)
			}
			if b.Remaining() != 0 {
				t.Fatalf("Remaining = %d, want 0", b.Remaining())
			}
			err := tc.do(b)
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("cached request failed after exhaustion: %v", err)
				}
			} else if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if b.QueryCost() != 2 {
				t.Fatalf("QueryCost = %d after exhaustion, want 2", b.QueryCost())
			}
		})
	}
}

// TestBudgetedRateLimitedSimulator composes the full wrapper stack the
// paper's deployment model implies — Budgeted(Simulator+RateLimiter) —
// and checks cost accounting and error propagation through every layer.
func TestBudgetedRateLimitedSimulator(t *testing.T) {
	cases := []struct {
		name        string
		budget      int
		calls       int           // rate limit: calls per window
		window      time.Duration // rate limit window
		queries     []graph.Node  // Neighbors queries, in order
		wantCost    int           // unique queries actually spent
		wantErrAt   int           // index of the first failing query (-1 = none)
		wantErr     error
		wantElapsed time.Duration // virtual wait accumulated
	}{
		{
			name:   "under budget, under rate",
			budget: 5, calls: 10, window: time.Minute,
			queries:  []graph.Node{0, 1, 2},
			wantCost: 3, wantErrAt: -1, wantElapsed: 0,
		},
		{
			name:   "cache hits cost neither budget nor tokens",
			budget: 2, calls: 2, window: time.Minute,
			queries:  []graph.Node{0, 0, 0, 1, 1, 0},
			wantCost: 2, wantErrAt: -1, wantElapsed: 0,
		},
		{
			name:   "budget exhaustion propagates through the stack",
			budget: 2, calls: 10, window: time.Minute,
			queries:  []graph.Node{0, 1, 2},
			wantCost: 2, wantErrAt: 2, wantErr: ErrBudgetExhausted, wantElapsed: 0,
		},
		{
			name:   "rate limit rolls the virtual clock, budget still enforced",
			budget: 4, calls: 1, window: time.Minute,
			queries:  []graph.Node{0, 1, 2, 3, 4},
			wantCost: 4, wantErrAt: 4, wantErr: ErrBudgetExhausted,
			// 4 unique queries through a 1-per-minute bucket: the 2nd,
			// 3rd and 4th each roll one window; the refused 5th takes
			// no token.
			wantElapsed: 3 * time.Minute,
		},
		{
			name:   "unknown node propagates from the simulator",
			budget: 5, calls: 10, window: time.Minute,
			queries:  []graph.Node{0, 99},
			wantCost: 1, wantErrAt: 1, wantErr: ErrUnknownNode, wantElapsed: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := NewSimulator(testGraph(t))
			rl := NewRateLimiter(tc.calls, tc.window)
			sim.SetRateLimiter(rl)
			b := NewBudgeted(sim, tc.budget)
			for i, u := range tc.queries {
				_, err := b.Neighbors(u)
				if tc.wantErrAt == i {
					if !errors.Is(err, tc.wantErr) {
						t.Fatalf("query %d: err = %v, want %v", i, err, tc.wantErr)
					}
					break
				}
				if err != nil {
					t.Fatalf("query %d: unexpected error %v", i, err)
				}
			}
			if b.QueryCost() != tc.wantCost {
				t.Fatalf("QueryCost = %d, want %d", b.QueryCost(), tc.wantCost)
			}
			if rl.VirtualElapsed() != tc.wantElapsed {
				t.Fatalf("VirtualElapsed = %v, want %v", rl.VirtualElapsed(), tc.wantElapsed)
			}
		})
	}
}
