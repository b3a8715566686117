package session

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"histwalk/internal/core"
	"histwalk/internal/dataset"
	"histwalk/internal/registry"
)

// resultJSON canonicalizes a Result for byte-level comparison. The
// pipelined wire-side counters (Pipeline) are stripped first: per the
// Result docs they depend on goroutine scheduling and sit outside the
// determinism invariant the parity tests pin. Every other field is
// compared.
func resultJSON(t testing.TB, r *Result) string {
	t.Helper()
	clean := *r
	clean.Pipeline = nil
	b, err := json.Marshal(&clean)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(b)
}

// stepN advances the session exactly n transitions (fewer if the run
// finishes first), returning how many happened.
func stepN(t testing.TB, s *Session, n int) int {
	t.Helper()
	for i := 0; i < n; i++ {
		_, ok, err := s.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			return i
		}
	}
	return n
}

// finishSession drives the session to completion and merges.
func finishSession(t testing.TB, s *Session) *Result {
	t.Helper()
	for {
		_, ok, err := s.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			break
		}
	}
	res, err := s.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	return res
}

// checkpointAndResume snapshots s through a JSON round trip (the form
// the job store persists) and replays it onto a fresh session.
func checkpointAndResume(t testing.TB, s *Session, spec Spec) *Session {
	t.Helper()
	raw, err := json.Marshal(s.Checkpoint())
	if err != nil {
		t.Fatalf("marshal checkpoint: %v", err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(raw, &cp); err != nil {
		t.Fatalf("unmarshal checkpoint: %v", err)
	}
	fresh, err := NewSession(spec)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if err := fresh.ResumeFrom(context.Background(), &cp); err != nil {
		t.Fatalf("ResumeFrom: %v", err)
	}
	return fresh
}

// TestCheckpointResumeParity pins the crash-resume invariant: for every
// walker and a spread of kill points, a session checkpointed at the
// kill point and resumed on a fresh session produces the bit-identical
// Result of a never-interrupted run.
func TestCheckpointResumeParity(t *testing.T) {
	g := testGraph(t)
	walkers := []core.Factory{
		core.SRWFactory(), core.MHRWFactory(), core.NBSRWFactory(), core.CNRWFactory(),
	}
	if f, err := registry.WalkerByName("gnrw-degree", registry.WalkerOptions{Groups: 4}); err == nil {
		walkers = append(walkers, f)
	} else {
		t.Fatalf("registry gnrw-degree: %v", err)
	}
	for _, w := range walkers {
		t.Run(w.Name, func(t *testing.T) {
			spec := Spec{Graph: g, Walker: w, Budget: 50, Chains: 3, Seed: 11,
				Estimators: []EstimatorSpec{
					{Kind: AggAvgDegree},
					{Kind: AggProportion, Attr: "score", Predicate: func(x float64) bool { return x >= 5 }},
				}}
			ref, err := Run(context.Background(), spec)
			if err != nil {
				t.Fatalf("reference Run: %v", err)
			}
			want := resultJSON(t, ref)
			for _, kill := range []int{0, 1, 3, 17, 60, 1 << 20} {
				sess, err := NewSession(spec)
				if err != nil {
					t.Fatalf("NewSession: %v", err)
				}
				stepN(t, sess, kill)
				resumed := checkpointAndResume(t, sess, spec)
				got := resultJSON(t, finishSession(t, resumed))
				if got != want {
					t.Fatalf("kill at %d: resumed Result differs from uninterrupted run\nresumed: %s\nwant:    %s", kill, got, want)
				}
			}
		})
	}
}

// TestCheckpointResumeModes covers the non-default execution modes:
// the shared cache and the pipelined access layer, alone and pipelined
// under the shared cache, must all resume to a bit-identical Result,
// as must a spec naming the deprecated SteppingBatched alias.
func TestCheckpointResumeModes(t *testing.T) {
	g := testGraph(t)
	cases := []struct {
		name string
		mod  func(*Spec)
	}{
		{"shared-cache", func(s *Spec) { s.Cache = CacheShared }},
		{"batched-alias", func(s *Spec) { s.Stepping = SteppingBatched }},
		{"pipelined", func(s *Spec) { s.Window = 4; s.Latency = 50 * time.Microsecond }},
		{"pipelined-shared", func(s *Spec) { s.Window = 4; s.Latency = 50 * time.Microsecond; s.Cache = CacheShared }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := baseSpec(g)
			spec.Chains = 4
			tc.mod(&spec)
			ref, err := Run(context.Background(), spec)
			if err != nil {
				t.Fatalf("reference Run: %v", err)
			}
			want := resultJSON(t, ref)
			for _, kill := range []int{0, 5, 41} {
				sess, err := NewSession(spec)
				if err != nil {
					t.Fatalf("NewSession: %v", err)
				}
				stepN(t, sess, kill)
				resumed := checkpointAndResume(t, sess, spec)
				got := resultJSON(t, finishSession(t, resumed))
				sess.Close()
				resumed.Close()
				if got != want {
					t.Fatalf("kill at %d: resumed Result differs from uninterrupted run", kill)
				}
			}
		})
	}
}

// TestCheckpointMidRunEqualsContinuation: the session that was
// checkpointed can itself keep running; both it and the resumed clone
// must land on the same Result.
func TestCheckpointMidRunEqualsContinuation(t *testing.T) {
	g := testGraph(t)
	spec := baseSpec(g)
	sess, err := NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	stepN(t, sess, 23)
	resumed := checkpointAndResume(t, sess, spec)
	orig := resultJSON(t, finishSession(t, sess))
	clone := resultJSON(t, finishSession(t, resumed))
	if orig != clone {
		t.Fatalf("continuation and resumed clone disagree:\n%s\n%s", orig, clone)
	}
}

// TestResumeFromMismatch: tampered checkpoints must be rejected with
// ErrCheckpointMismatch, never silently resumed.
func TestResumeFromMismatch(t *testing.T) {
	g := testGraph(t)
	spec := baseSpec(g)
	mk := func() *Checkpoint {
		s, err := NewSession(spec)
		if err != nil {
			t.Fatal(err)
		}
		stepN(t, s, 20)
		return s.Checkpoint()
	}
	tampers := []struct {
		name string
		mod  func(*Checkpoint)
	}{
		{"spent", func(c *Checkpoint) { c.Chains[1].Spent += 3 }},
		{"samples", func(c *Checkpoint) { c.Chains[0].Samples++ }},
		{"draws", func(c *Checkpoint) { c.Chains[2].Draws += 7 }},
		{"node", func(c *Checkpoint) { c.Chains[0].Node ^= 1 }},
		{"digest", func(c *Checkpoint) { c.Chains[1].Digest = strings.Repeat("0", 16) }},
		{"done", func(c *Checkpoint) { c.Chains[0].Done = true }},
		{"chain-index", func(c *Checkpoint) { c.Chains[1].Chain = 0 }},
		{"chain-count", func(c *Checkpoint) { c.Chains = c.Chains[:3] }},
	}
	for _, tc := range tampers {
		t.Run(tc.name, func(t *testing.T) {
			cp := mk()
			tc.mod(cp)
			fresh, err := NewSession(spec)
			if err != nil {
				t.Fatal(err)
			}
			err = fresh.ResumeFrom(context.Background(), cp)
			if err == nil {
				t.Fatal("tampered checkpoint resumed without error")
			}
		})
	}
	// And an untampered one still resumes cleanly.
	cp := mk()
	fresh, err := NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.ResumeFrom(context.Background(), cp); err != nil {
		t.Fatalf("clean checkpoint rejected: %v", err)
	}
}

// TestResumeRequiresUnstepped: replaying onto a session that already
// moved must fail rather than corrupt state.
func TestResumeRequiresUnstepped(t *testing.T) {
	g := testGraph(t)
	spec := baseSpec(g)
	s, err := NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	stepN(t, s, 5)
	cp := s.Checkpoint()
	if err := s.ResumeFrom(context.Background(), cp); err == nil {
		t.Fatal("ResumeFrom accepted a stepped session")
	}
	// nil checkpoint is a no-op on a fresh session.
	fresh, err := NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.ResumeFrom(context.Background(), nil); err != nil {
		t.Fatalf("nil checkpoint: %v", err)
	}
}

// FuzzCheckpointResume fuzzes the kill point, seed and shape of the
// run: whatever transition the crash lands on, checkpoint+resume must
// reproduce the uninterrupted Result bit-for-bit.
func FuzzCheckpointResume(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(2), uint16(7), uint8(0))
	f.Add(int64(42), uint8(55), uint8(4), uint16(0), uint8(1))
	f.Add(int64(-9), uint8(80), uint8(1), uint16(500), uint8(2))
	f.Add(int64(1234), uint8(64), uint8(3), uint16(99), uint8(3))
	g := testGraph(f)
	walkers := []core.Factory{
		core.SRWFactory(), core.MHRWFactory(), core.NBSRWFactory(), core.CNRWFactory(),
	}
	f.Fuzz(func(t *testing.T, seed int64, budget, chains uint8, kill uint16, walkerIdx uint8) {
		spec := Spec{
			Graph:  g,
			Walker: walkers[int(walkerIdx)%len(walkers)],
			Budget: 1 + int(budget)%90,
			Chains: 1 + int(chains)%4,
			Seed:   seed,
		}
		ref, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("reference Run: %v", err)
		}
		sess, err := NewSession(spec)
		if err != nil {
			t.Fatal(err)
		}
		stepN(t, sess, int(kill))
		resumed := checkpointAndResume(t, sess, spec)
		got := resultJSON(t, finishSession(t, resumed))
		if want := resultJSON(t, ref); got != want {
			t.Fatalf("seed=%d budget=%d chains=%d kill=%d walker=%s: resumed Result differs",
				seed, spec.Budget, spec.Chains, kill, spec.Walker.Name)
		}
	})
}

// TestResumeFromKeepsRotation checkpoints a session mid-rotation (9, 10
// and 11 Next calls into a 4-chain run, and 8, a rotation boundary) and
// resumes it on a fresh session. From then on both sessions must yield
// the same Updates in the same order, and every mid-run merge must
// agree, as a service's running estimates require.
func TestResumeFromKeepsRotation(t *testing.T) {
	spec := Spec{Graph: dataset.ClusteredGraph(), Walker: core.CNRWFactory(), Budget: 60, Chains: 4, Seed: 3}
	for _, n := range []int{8, 9, 10, 11} {
		orig, err := NewSession(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := stepN(t, orig, n); got != n {
			t.Fatalf("n=%d: run ended after %d steps", n, got)
		}
		resumed := checkpointAndResume(t, orig, spec)
		for i := 0; ; i++ {
			want, wok, werr := orig.Next()
			got, gok, gerr := resumed.Next()
			if werr != nil || gerr != nil {
				t.Fatalf("n=%d, update %d: Next errors %v, %v", n, i, werr, gerr)
			}
			if want != got || wok != gok {
				t.Fatalf("n=%d, update %d after the checkpoint: resumed %+v, uninterrupted %+v", n, i, got, want)
			}
			if !wok {
				break
			}
			wres, werr := orig.Result()
			gres, gerr := resumed.Result()
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("n=%d, update %d: merge errors %v, %v", n, i, gerr, werr)
			}
			if werr == nil && resultJSON(t, gres) != resultJSON(t, wres) {
				t.Fatalf("n=%d, update %d: mid-run Result differs from the uninterrupted session's", n, i)
			}
		}
	}
}
