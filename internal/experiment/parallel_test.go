package experiment

// Determinism and seed-stream regression tests for the worker-pool
// refactor: figure outputs must be bit-identical for any worker count,
// and experiments sharing a master seed must draw disjoint trial-seed
// streams (the additive seed+trial scheme this replaced could collide).

import (
	"context"
	"reflect"
	"testing"

	"histwalk/internal/engine"
	"histwalk/internal/graph"
	"histwalk/internal/session"
)

func TestEstimationFigureDeterministicAcrossWorkers(t *testing.T) {
	g := testGraph()
	base := EstimationConfig{
		ID: "det", Title: "det", Graph: g, Attr: "degree",
		Factories: testFactories(),
		Budgets:   []int{10, 20, 40},
		Trials:    30, Seed: 5,
	}
	serial := base
	serial.Workers = 1
	figS, err := EstimationFigure(serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par := base
		par.Workers = workers
		figP, err := EstimationFigure(par)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(figS, figP) {
			t.Fatalf("figure differs between Workers=1 and Workers=%d", workers)
		}
	}
}

func TestDistanceFiguresDeterministicAcrossWorkers(t *testing.T) {
	g := testGraph()
	base := DistanceConfig{
		IDPrefix: "det", Title: "det", Graph: g, Attr: "degree",
		Factories: testFactories(),
		Budgets:   []int{10, 25},
		Trials:    40, Seed: 11,
	}
	serial := base
	serial.Workers = 1
	a, err := DistanceFigures(serial)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Workers = 8
	b, err := DistanceFigures(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("distance figures differ across worker counts")
	}
}

func TestStationaryFigureDeterministicAcrossWorkers(t *testing.T) {
	g := testGraph()
	base := StationaryConfig{
		ID: "det8", Title: "det", Graph: g,
		Factories: testFactories(),
		Walks:     8, StepsPerWalk: 500, Seed: 13,
	}
	serial := base
	serial.Workers = 1
	a, err := StationaryFigure(serial)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Workers = 8
	b, err := StationaryFigure(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("stationary figure differs across worker counts")
	}
}

// TestFiguresSeedStreamsDistinct is the regression test for the old
// cfg.Seed+trial seed derivation: two figures with the same master seed
// but different IDs must draw distinct trial-seed streams, hence
// (statistically certainly, over 30 trials) different measured curves.
func TestFiguresSeedStreamsDistinct(t *testing.T) {
	g := testGraph()
	mk := func(id string) *Figure {
		fig, err := EstimationFigure(EstimationConfig{
			ID: id, Title: id, Graph: g, Attr: "degree",
			Factories: testFactories(),
			Budgets:   []int{10, 20, 40},
			Trials:    30, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fig
	}
	a, b := mk("figA"), mk("figB")
	for si := range a.Series {
		if reflect.DeepEqual(a.Series[si].Y, b.Series[si].Y) {
			t.Fatalf("series %q identical across differently-labeled figures sharing a master seed",
				a.Series[si].Name)
		}
	}
	// And the same label twice must reproduce exactly.
	if !reflect.DeepEqual(mk("figA"), a) {
		t.Fatal("same figure label and master seed did not reproduce")
	}
}

// TestStreamOverrideSharesWalks pins the Figure 9 pairing design: two
// figures with different IDs but the same Stream run identical walks,
// so measuring the same attribute yields identical curves.
func TestStreamOverrideSharesWalks(t *testing.T) {
	g := testGraph()
	mk := func(id string) *Figure {
		fig, err := EstimationFigure(EstimationConfig{
			ID: id, Stream: "panels", Title: id, Graph: g, Attr: "degree",
			Factories: testFactories(),
			Budgets:   []int{10, 20},
			Trials:    20, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fig
	}
	a, b := mk("panelA"), mk("panelB")
	for si := range a.Series {
		if !reflect.DeepEqual(a.Series[si].Y, b.Series[si].Y) {
			t.Fatalf("series %q differs across panels sharing a Stream", a.Series[si].Name)
		}
	}
}

// TestSharedStartsAcrossAlgorithms pins the paired-trials property the
// estimation figures depend on: within one figure, trial t of every
// algorithm shares its seed, hence its uniformly drawn start node.
func TestSharedStartsAcrossAlgorithms(t *testing.T) {
	g := testGraph()
	stream := engine.StreamID("estimation", "shared")
	var starts [][]graph.Node
	for _, f := range testFactories() {
		spec, err := trialSpec(g, f, "degree", []int{3}, 5, 21, stream, CostUnique)
		if err != nil {
			t.Fatal(err)
		}
		var nodes []graph.Node
		for trial := 0; trial < spec.Chains; trial++ {
			res, err := session.RunChain(context.Background(), spec, trial, nil)
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, res.Start)
		}
		starts = append(starts, nodes)
	}
	if !reflect.DeepEqual(starts[0], starts[1]) {
		t.Fatalf("start sequences differ across algorithms: %v vs %v", starts[0], starts[1])
	}
}
