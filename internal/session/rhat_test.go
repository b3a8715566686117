package session

import (
	"context"
	"math"
	"testing"

	"histwalk/internal/core"
	"histwalk/internal/dataset"
	"histwalk/internal/engine"
)

// TestGelmanRubinFlagsTrappedChains reads R̂ off the served Result on
// the paper's barbell: four chains estimate the share of nodes in the
// second clique, and seed 5 starts them in both cliques. On a budget
// too small for the chains to cross the bridge and mix, R̂ must flag
// their disagreement (≥ 1.5, or +Inf when every chain reads a
// constant). Under the unique-query budget the chains retain very
// different sample counts, so R̂ reads a prefix of the longer ones. On
// a budget long enough to mix, R̂ must be near 1.
func TestGelmanRubinFlagsTrappedChains(t *testing.T) {
	g := dataset.BarbellGraph(40)
	for _, walker := range []core.Factory{core.SRWFactory(), core.CNRWFactory()} {
		for _, tc := range []struct {
			name    string
			cost    engine.CostModel
			budget  int
			trapped bool
		}{
			{"steps-200", engine.CostSteps, 200, true},
			{"unique-30", engine.CostUnique, 30, true},
			{"steps-200000", engine.CostSteps, 200_000, false},
		} {
			t.Run(walker.Name+"/"+tc.name, func(t *testing.T) {
				res, err := Run(context.Background(), Spec{
					Graph: g, Walker: walker, Cost: tc.cost, Budget: tc.budget, Chains: 4, Seed: 5,
					Estimators: []EstimatorSpec{{Kind: AggMean, Attr: dataset.AttrClique2}},
				})
				if err != nil {
					t.Fatal(err)
				}
				var near, far, shortest, longest int
				for i, c := range res.Chains {
					if in2, _ := g.AttrValue(dataset.AttrClique2, c.Start); in2 == 1 {
						far++
					} else {
						near++
					}
					if i == 0 || c.Samples < shortest {
						shortest = c.Samples
					}
					longest = max(longest, c.Samples)
				}
				if near == 0 || far == 0 {
					t.Fatalf("chain starts %+v do not split across the cliques", res.Chains)
				}
				r := res.Estimates[0].GelmanRubin
				t.Logf("R̂ = %.4g over %d–%d samples per chain, per-chain %v", r, shortest, longest, res.Estimates[0].PerChain)
				if tc.trapped && !(math.IsInf(r, 1) || r >= 1.5) {
					t.Fatalf("trapped chains: R̂ = %v, want ≥ 1.5", r)
				}
				if !tc.trapped && (r == 0 || r > 1.05) {
					t.Fatalf("mixed chains: R̂ = %v, want computed and ≤ 1.05", r)
				}
			})
		}
	}
}
