package session

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// wireSpec is a small valid wire spec used across the tests.
func wireSpec() SpecJSON {
	return SpecJSON{
		Dataset: "clustered",
		Walker:  "cnrw",
		Budget:  40,
		Chains:  3,
		Seed:    11,
	}
}

func TestSpecJSONResolvesAndRuns(t *testing.T) {
	spec, err := wireSpec().Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Graph == nil || spec.Walker.Name != "CNRW" {
		t.Fatalf("resolution lost fields: %+v", spec)
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chains) != 3 || res.Estimates[0].Name != "avg(degree)" {
		t.Fatalf("unexpected result shape: %+v", res)
	}
}

// TestSpecJSONResolutionDeterministic resolves the same wire bytes
// twice and runs both: the Results must be bit-identical — the property
// the sampling service's "job == direct Run" invariant stands on.
func TestSpecJSONResolutionDeterministic(t *testing.T) {
	w := wireSpec()
	w.Walker = "gnrw-degree"
	w.Groups = 4
	w.Cache = "shared"
	w.Stream = "svc-test"
	w.Estimators = []EstimatorJSON{
		{Kind: "mean", Attr: "degree"},
		{Kind: "proportion", Op: ">=", Value: 8},
	}
	a, err := w.Spec()
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.Spec()
	if err != nil {
		t.Fatal(err)
	}
	ra, err := Run(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("two resolutions of one SpecJSON diverged:\n%+v\nvs\n%+v", ra, rb)
	}
}

func TestSpecJSONValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*SpecJSON)
		want string
	}{
		{"missing dataset", func(w *SpecJSON) { w.Dataset = "" }, "requires a dataset"},
		{"unknown dataset", func(w *SpecJSON) { w.Dataset = "orkut" }, "unknown dataset"},
		{"unknown walker", func(w *SpecJSON) { w.Walker = "levy-flight" }, "unknown walker"},
		{"unknown cache", func(w *SpecJSON) { w.Cache = "distributed" }, "unknown cache policy"},
		{"unknown cost", func(w *SpecJSON) { w.Cost = "dollars" }, "unknown cost model"},
		{"unknown design", func(w *SpecJSON) { w.Design = "horvitz" }, "unknown design"},
		{"zero budget", func(w *SpecJSON) { w.Budget = 0 }, "Budget"},
		{"unknown estimator kind", func(w *SpecJSON) {
			w.Estimators = []EstimatorJSON{{Kind: "median"}}
		}, "unknown estimator kind"},
		{"proportion without op", func(w *SpecJSON) {
			w.Estimators = []EstimatorJSON{{Kind: "proportion"}}
		}, "requires op"},
		{"bad op", func(w *SpecJSON) {
			w.Estimators = []EstimatorJSON{{Kind: "proportion", Op: "~", Value: 1}}
		}, "unknown predicate op"},
		{"op on mean", func(w *SpecJSON) {
			w.Estimators = []EstimatorJSON{{Kind: "mean", Op: ">="}}
		}, "does not take a predicate"},
	}
	for _, tc := range cases {
		w := wireSpec()
		tc.mut(&w)
		_, err := w.Spec()
		if err == nil {
			t.Errorf("%s: resolution accepted invalid wire spec", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestEstimatorByName(t *testing.T) {
	for name, want := range map[string]Aggregate{
		"mean": AggMean, "avg": AggMean, "MEAN": AggMean,
		"avg-degree": AggAvgDegree, "avgdegree": AggAvgDegree,
		"proportion": AggProportion,
	} {
		got, err := EstimatorByName(name)
		if err != nil || got != want {
			t.Errorf("EstimatorByName(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := EstimatorByName("quantile"); err == nil {
		t.Fatal("unknown estimator name accepted")
	}
	if len(EstimatorNames()) == 0 {
		t.Fatal("EstimatorNames empty")
	}
}

// TestPredicateOps checks every wire predicate against a hand-computed
// truth table.
func TestPredicateOps(t *testing.T) {
	for _, tc := range []struct {
		op   string
		x    float64
		want bool
	}{
		{">", 3, true}, {">", 2, false},
		{">=", 2, true}, {">=", 1, false},
		{"<", 1, true}, {"<", 2, false},
		{"<=", 2, true}, {"<=", 3, false},
		{"==", 2, true}, {"==", 3, false},
		{"!=", 3, true}, {"!=", 2, false},
	} {
		pred, err := predicateFor(tc.op, 2)
		if err != nil {
			t.Fatalf("op %q: %v", tc.op, err)
		}
		if pred(tc.x) != tc.want {
			t.Errorf("(%v %s 2) = %v, want %v", tc.x, tc.op, !tc.want, tc.want)
		}
	}
}

// TestResultJSONRoundTrip marshals a Result and unmarshals it back:
// the wire names must be stable and the numeric content preserved
// exactly (floats survive Go's shortest-round-trip encoding).
func TestResultJSONRoundTrip(t *testing.T) {
	spec, err := wireSpec().Spec()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"estimates"`, `"design"`, `"degree-proportional"`, `"total_queries"`, `"global_queries"`, `"per_chain"`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("marshaled result lacks %s: %s", key, b)
		}
	}
	var back Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*res, back) {
		t.Fatalf("round-trip changed the result:\n%+v\nvs\n%+v", *res, back)
	}
}

// TestWireStepping: the wire form round-trips the stepping mode and
// rejects unknown names.
func TestWireStepping(t *testing.T) {
	base := SpecJSON{Dataset: "gplus", Walker: "cnrw", Budget: 40, Seed: 3}
	for name, want := range map[string]SteppingMode{
		"": SteppingPerChain, "per-chain": SteppingPerChain, "batched": SteppingBatched,
	} {
		w := base
		w.Stepping = name
		sp, err := w.Spec()
		if err != nil {
			t.Fatalf("stepping %q: %v", name, err)
		}
		if sp.Stepping != want {
			t.Fatalf("stepping %q resolved to %d, want %d", name, sp.Stepping, want)
		}
	}
	w := base
	w.Stepping = "vectorized"
	if _, err := w.Spec(); err == nil {
		t.Fatal("wire spec accepted an unknown stepping mode")
	}
}

// TestWireBatchedRunIdentity: the same SpecJSON resolved with and
// without "batched" produces bit-identical Results — the wire-level
// statement of the interleaving-only contract the service relies on.
func TestWireBatchedRunIdentity(t *testing.T) {
	base := SpecJSON{Dataset: "gplus", Walker: "gnrw-degree", Budget: 80, Chains: 4, Seed: 11, Cache: "shared"}
	seq, err := base.Spec()
	if err != nil {
		t.Fatal(err)
	}
	bw := base
	bw.Stepping = "batched"
	bat, err := bw.Spec()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(context.Background(), seq)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), bat)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("wire-resolved batched Result differs from per-chain")
	}
}
