package access

import (
	"math/rand"
	"testing"

	"histwalk/internal/graph"
)

func TestRecorderLogsCalls(t *testing.T) {
	g := graph.Complete(4)
	if err := g.SetAttr("x", []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator(g)
	rec := NewRecorder(sim)

	if _, err := rec.Neighbors(0); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Neighbors(0); err != nil { // cache hit
		t.Fatal(err)
	}
	if _, err := rec.Degree(1); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Attribute(2, "x"); err != nil {
		t.Fatal(err)
	}
	log := rec.Log()
	if len(log) != 4 {
		t.Fatalf("log = %d entries", len(log))
	}
	if !log[0].Paid() || log[1].Paid() {
		t.Fatal("paid/cached classification wrong")
	}
	if rec.PaidQueries() != 3 {
		t.Fatalf("paid = %d, want 3", rec.PaidQueries())
	}
	if log[0].Kind != KindNeighbors || log[2].Kind != KindDegree || log[3].Kind != KindAttribute {
		t.Fatal("kinds wrong")
	}
	if log[3].Attr != "x" {
		t.Fatal("attribute name not recorded")
	}
	if rec.QueryCost() != sim.QueryCost() {
		t.Fatal("QueryCost not forwarded")
	}
	if !rec.IsCached(0) || rec.IsCached(3) {
		t.Fatal("IsCached not forwarded")
	}
}

func TestRecorderSummariesNotRecorded(t *testing.T) {
	g := graph.Complete(3)
	if err := g.SetAttr("x", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(NewSimulator(g))
	if _, err := rec.Neighbors(0); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.SummaryAttr(0, 1, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.SummaryDegree(0, 2); err != nil {
		t.Fatal(err)
	}
	if len(rec.Log()) != 1 {
		t.Fatalf("log = %d entries; summaries must not be recorded", len(rec.Log()))
	}
}

func TestQueryKindString(t *testing.T) {
	if KindNeighbors.String() != "neighbors" || KindDegree.String() != "degree" ||
		KindAttribute.String() != "attribute" || QueryKind(99).String() != "unknown" {
		t.Fatal("QueryKind strings wrong")
	}
}

// The recorder's paid-query count must agree with the simulator's
// unique counter across a real walk.
func TestRecorderAgreesWithSimulatorOnWalks(t *testing.T) {
	g := graph.Barbell(6)
	sim := NewSimulator(g)
	rec := NewRecorder(sim)
	rng := rand.New(rand.NewSource(9))
	cur := graph.Node(0)
	for s := 0; s < 500; s++ {
		ns, err := rec.Neighbors(cur)
		if err != nil {
			t.Fatal(err)
		}
		cur = ns[rng.Intn(len(ns))]
	}
	if rec.PaidQueries() != sim.QueryCost() {
		t.Fatalf("recorder paid %d, simulator unique %d", rec.PaidQueries(), sim.QueryCost())
	}
}
