package access

// Tests for the allocation-free NeighborsAppend contract: identical
// content and cost accounting to Neighbors, caller-owned buffers that
// never alias internal storage, buffer preservation on error, and the
// contract holding through the Budgeted wrapper.

import (
	"errors"
	"testing"

	"histwalk/internal/graph"
)

func appendTestGraph() *graph.Graph {
	return graph.FromEdges(5, [][2]graph.Node{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}})
}

func TestNeighborsAppendMatchesNeighbors(t *testing.T) {
	g := appendTestGraph()
	ref := NewSimulator(g)
	sim := NewSimulator(g)
	var buf []graph.Node
	for v := graph.Node(0); v < graph.Node(g.NumNodes()); v++ {
		want, err := ref.Neighbors(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.NeighborsAppend(buf[:0], v)
		if err != nil {
			t.Fatal(err)
		}
		buf = got
		if len(got) != len(want) {
			t.Fatalf("node %d: %d neighbors, want %d", v, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("node %d: neighbor %d = %d, want %d (order must be stable)", v, i, got[i], want[i])
			}
		}
		if ref.QueryCost() != sim.QueryCost() {
			t.Fatalf("node %d: cost %d != Neighbors cost %d", v, sim.QueryCost(), ref.QueryCost())
		}
	}
	// Repeat queries are cache hits on both paths.
	before := sim.QueryCost()
	if _, err := sim.NeighborsAppend(buf[:0], 0); err != nil {
		t.Fatal(err)
	}
	if sim.QueryCost() != before {
		t.Fatal("repeat NeighborsAppend consumed budget")
	}
}

func TestNeighborsAppendDoesNotAliasGraphStorage(t *testing.T) {
	g := appendTestGraph()
	sim := NewSimulator(g)
	got, err := sim.NeighborsAppend(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	internal := g.Neighbors(2)
	if &got[0] == &internal[0] {
		t.Fatal("NeighborsAppend returned the graph's internal CSR slice; caller writes would corrupt the graph")
	}
	// Mutating the returned slice must not change the graph.
	got[0] = -7
	if g.Neighbors(2)[0] == -7 {
		t.Fatal("mutation through the returned slice reached the graph")
	}
}

func TestNeighborsAppendErrorLeavesDstUntouched(t *testing.T) {
	g := appendTestGraph()
	sim := NewSimulator(g)
	dst := []graph.Node{42}
	out, err := sim.NeighborsAppend(dst, 99)
	if !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
	if len(out) != 1 || out[0] != 42 {
		t.Fatalf("dst corrupted on error: %v", out)
	}
}

func TestNeighborsAppendThroughBudgeted(t *testing.T) {
	g := appendTestGraph()
	sim := NewSimulator(g)
	b := NewBudgeted(sim, 2)
	var buf []graph.Node
	for _, v := range []graph.Node{0, 1} {
		out, err := b.NeighborsAppend(buf[:0], v)
		if err != nil {
			t.Fatal(err)
		}
		buf = out
	}
	// Budget spent: a new node is refused with the buffer intact...
	buf = append(buf[:0], 42)
	out, err := b.NeighborsAppend(buf, 3)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if len(out) != 1 || out[0] != 42 {
		t.Fatalf("dst corrupted on refusal: %v", out)
	}
	// ...while cached nodes stay readable.
	if _, err := b.NeighborsAppend(out[:0], 0); err != nil {
		t.Fatalf("cached node refused after exhaustion: %v", err)
	}
}
