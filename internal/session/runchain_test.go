package session

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"histwalk/internal/access"
	"histwalk/internal/core"
	"histwalk/internal/engine"
	"histwalk/internal/graphstore"
	"histwalk/internal/registry"
)

// TestRunChainMatchesSession pins RunChain to the Session chain it
// claims to be. For every registry walker, over Graph and Store
// sources and under both cost models, plus one Client-mode spec,
// RunChain(spec, c) must yield exactly the Updates chain c yields
// under Session.Next, its ChainResult must equal Run(spec).Chains[c],
// and the point each estimator's view reads after the chain's last
// Update must equal Run(spec).Estimates[e].PerChain[c] bit for bit.
func TestRunChainMatchesSession(t *testing.T) {
	g := pipeGraph(t) // carries every attribute the registry's walkers read
	path := filepath.Join(t.TempDir(), "pipe.hwg")
	if err := graphstore.WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	m, err := graphstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	estimators := []EstimatorSpec{{Kind: AggAvgDegree}, {Kind: AggMean, Attr: "score"}}
	type tc struct {
		name string
		mk   func() Spec // a fresh spec per run: a Client carries state
	}
	var cases []tc
	for _, name := range registry.WalkerNames() {
		factory, err := registry.WalkerByName(name, registry.WalkerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, cost := range []engine.CostModel{engine.CostUnique, engine.CostSteps} {
			for _, src := range []string{"graph", "store"} {
				cases = append(cases, tc{name + "/" + cost.String() + "/" + src, func() Spec {
					sp := Spec{Graph: g, Walker: factory, Estimators: estimators, Budget: 40,
						Cost: cost, Chains: 3, BurnIn: 2, Thin: 2, Seed: 19}
					if src == "store" {
						sp.Graph, sp.Store = nil, m
					}
					return sp
				}})
			}
		}
	}
	cases = append(cases, tc{"client", func() Spec {
		return Spec{Client: access.NewBudgeted(access.NewSimulator(g), 30), Start: 3,
			Walker: core.CNRWFactory(), Estimators: estimators, Budget: 1 << 20, Seed: 5}
	}})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSession(tc.mk())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var want [][]Update
			for {
				u, ok, err := s.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				for len(want) <= u.Chain {
					want = append(want, nil)
				}
				want[u.Chain] = append(want[u.Chain], u)
			}
			res, err := Run(context.Background(), tc.mk())
			if err != nil {
				t.Fatal(err)
			}
			for c := range res.Chains {
				var got []Update
				points := make([]float64, len(estimators))
				perrs := make([]error, len(estimators))
				cres, err := RunChain(context.Background(), tc.mk(), c, func(u Update, v ChainView) error {
					got = append(got, u)
					for e := range points {
						points[e], perrs[e] = v.Point(e)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want[c]) {
					t.Fatalf("chain %d: RunChain yielded %d updates that differ from the Session's %d",
						c, len(got), len(want[c]))
				}
				if cres != res.Chains[c] {
					t.Fatalf("chain %d: RunChain result %+v, Run's %+v", c, cres, res.Chains[c])
				}
				for e, p := range points {
					want := res.Estimates[e].PerChain[c]
					if perrs[e] != nil || math.Float64bits(p) != math.Float64bits(want) {
						t.Fatalf("chain %d, estimator %d: view read %v (err %v) after the last Update, Run serves %v",
							c, e, p, perrs[e], want)
					}
				}
			}
		})
	}
}

// TestRunChainStops covers RunChain's early exits: an observe error
// stops the chain and is returned as is, a cancelled ctx returns its
// cause before any transition, and a chain index outside the spec is
// rejected.
func TestRunChainStops(t *testing.T) {
	g := testGraph(t)
	spec := baseSpec(g)
	errStop := errors.New("stop here")
	steps := 0
	_, err := RunChain(context.Background(), spec, 1, func(u Update, _ ChainView) error {
		steps++
		if u.Step == 5 {
			return errStop
		}
		return nil
	})
	if !errors.Is(err, errStop) || steps != 5 {
		t.Fatalf("observe error: err = %v after %d steps, want errStop after 5", err, steps)
	}

	cause := errors.New("cancelled early")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	_, err = RunChain(ctx, spec, 0, func(Update, ChainView) error {
		t.Fatal("a cancelled chain stepped")
		return nil
	})
	if !errors.Is(err, cause) {
		t.Fatalf("cancelled: err = %v, want the cause", err)
	}

	for _, c := range []int{-1, spec.Chains} {
		if _, err := RunChain(context.Background(), spec, c, nil); err == nil {
			t.Fatalf("chain %d of %d accepted", c, spec.Chains)
		}
	}
}
