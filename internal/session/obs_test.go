package session

// Observability parity: instrumentation (metric record paths and the
// lifecycle tracer) consumes no RNG and never reorders work, so a run
// with tracing enabled is bit-identical to the same run with tracing
// off — the whole Result in synchronous mode, every field but Pipeline
// in pipelined mode (its wire-side counters are scheduling-dependent
// and outside the determinism boundary). This is the house invariant
// the obs layer ships under.

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"histwalk/internal/obs"
	"histwalk/internal/registry"
)

// No t.Parallel here: the tracer under test is process-global.
func TestObservabilityParity(t *testing.T) {
	g := pipeGraph(t)
	for _, name := range []string{"srw", "cnrw", "gnrw-degree"} {
		factory, err := registry.WalkerByName(name, registry.WalkerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		mk := func(window int, latency time.Duration) Spec {
			return Spec{
				Graph:   g,
				Walker:  factory,
				Budget:  40,
				Chains:  3,
				Seed:    19,
				Window:  window,
				Latency: latency,
				Estimators: []EstimatorSpec{
					{Kind: AggAvgDegree},
					{Kind: AggMean, Attr: "score"},
				},
			}
		}

		// Synchronous mode: the entire Result must be unchanged by
		// tracing, byte for byte.
		quiet, err := Run(context.Background(), mk(0, 0))
		if err != nil {
			t.Fatalf("%s quiet: %v", name, err)
		}
		var buf bytes.Buffer
		tr := obs.NewTracer(&buf)
		obs.SetTracer(tr)
		traced, err := Run(context.Background(), mk(0, 0))
		obs.SetTracer(nil)
		tr.Close()
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if !reflect.DeepEqual(quiet, traced) {
			t.Fatalf("%s: tracing changed the Result:\n%+v\nvs\n%+v", name, quiet, traced)
		}
		out := buf.String()
		for _, ev := range []string{`"ev":"chain.start"`, `"ev":"chain.finish"`} {
			if !strings.Contains(out, ev) {
				t.Fatalf("%s: trace missing %s:\n%s", name, ev, out)
			}
		}

		// Pipelined mode (speculation + simulated latency): everything
		// but Pipeline must be unchanged by tracing; fetch spans must
		// appear in the trace.
		pquiet, err := Run(context.Background(), mk(8, 100*time.Microsecond))
		if err != nil {
			t.Fatalf("%s pipelined quiet: %v", name, err)
		}
		buf.Reset()
		tr = obs.NewTracer(&buf)
		obs.SetTracer(tr)
		ptraced, err := Run(context.Background(), mk(8, 100*time.Microsecond))
		obs.SetTracer(nil)
		tr.Close()
		if err != nil {
			t.Fatalf("%s pipelined traced: %v", name, err)
		}
		if want, got := chainLocal(pquiet), chainLocal(ptraced); !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: tracing changed the pipelined chain-local result:\n%+v\nvs\n%+v",
				name, want, got)
		}
		if out := buf.String(); !strings.Contains(out, `"ev":"fetch.end"`) {
			t.Fatalf("%s: pipelined trace missing fetch spans:\n%s", name, out)
		}
	}
}
