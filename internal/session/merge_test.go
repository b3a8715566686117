package session

// Merge identity: merges taken incrementally through a run — each one
// reading only the running state every retained sample was folded into
// once — must equal referenceMerge, the from-scratch fold of the
// samples the test logged from the run's Updates, at every point of a
// run: before every chain has sampled, mid-run and final, through
// Result and PartialResult in any interleaving, and while R̂ reads a
// batch-rounded prefix shorter than the shortest chain.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"histwalk/internal/dataset"
	"histwalk/internal/graph"
	"histwalk/internal/registry"
)

// mergeGraph is a small three-community graph carrying the attribute
// gnrw-attr groups by, so every registry walker runs on it.
func mergeGraph(t testing.TB) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	g := graph.PlantedPartition([]int{80, 80, 80}, 0.12, 0.01, rng).LargestComponent()
	vals := make([]float64, g.NumNodes())
	for v := range vals {
		vals[v] = float64((v*7 + 1) % 23)
	}
	if err := g.SetAttr(dataset.AttrReviews, vals); err != nil {
		t.Fatal(err)
	}
	return g
}

// mergeSpec is the spec of one merge-identity case: two estimators
// over the reviews attribute, the second a proportion when asked.
func mergeSpec(t testing.TB, g *graph.Graph, walker string, chains int, cache CachePolicy,
	stepping SteppingMode, burnIn, thin, ciBatch int, seed int64, proportion bool) Spec {
	t.Helper()
	factory, err := registry.WalkerByName(walker, registry.WalkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	second := EstimatorSpec{Kind: AggAvgDegree}
	if proportion {
		second = EstimatorSpec{Kind: AggProportion, Attr: dataset.AttrReviews,
			Predicate: func(v float64) bool { return v >= 11 }}
	}
	return Spec{
		Graph:      g,
		Walker:     factory,
		Budget:     60,
		Chains:     chains,
		Workers:    1, // Drive dispatches chains in index order
		Cache:      cache,
		Stepping:   stepping,
		BurnIn:     burnIn,
		Thin:       thin,
		CIBatch:    ciBatch,
		Seed:       seed,
		Estimators: []EstimatorSpec{{Kind: AggMean, Attr: dataset.AttrReviews}, second},
	}
}

// mergeOp is one step of a merge schedule: advance the session by n
// updates — through Next, or through a Drive cancelled after n
// updates, which finishes chain 0 before chain 1 starts — then merge
// with Result or PartialResult. Every update is logged.
type mergeOp struct {
	n              int
	drive, partial bool
}

// mergeCoverage counts the merge situations a schedule reached.
type mergeCoverage struct {
	merges  int // merges compared, successful or not
	early   int // Result refused while some chain had a sample
	skipped int // PartialResult that left an unsampled chain out
	rounded int // R̂ over a prefix shorter than the shortest chain
}

// advanceBy steps s by up to n updates, logging each, and reports
// whether it finished.
func advanceBy(t testing.TB, s *Session, log *sampleLog, n int, drive bool) bool {
	t.Helper()
	if !drive {
		for range n {
			u, ok, err := s.Next()
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			if !ok {
				return true
			}
			log.observe(t, u)
		}
		return s.Done()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	_, err := s.Drive(ctx, func(u Update) {
		log.observe(t, u)
		if seen++; seen >= n {
			cancel()
		}
	})
	// A Drive that finishes merges; that merge's error is checked
	// against the reference like any other.
	if err != nil && !errors.Is(err, context.Canceled) && !s.Done() {
		t.Fatalf("Drive: %v", err)
	}
	return s.Done()
}

// checkMerge merges s through Result (or PartialResult) and requires
// the outcome to equal referenceMerge over the same chains and the
// logged samples: the same error text, or a DeepEqual Result with
// identical JSON bytes.
func checkMerge(t testing.TB, s *Session, log *sampleLog, partial bool, cov *mergeCoverage) {
	t.Helper()
	var sampled []*chainRun
	shortest := -1
	for _, cr := range s.chains {
		if n := len(log.degrees[cr.idx]); n > 0 {
			sampled = append(sampled, cr)
			if shortest < 0 || n < shortest {
				shortest = n
			}
		}
	}
	chains := s.chains
	if partial {
		chains = sampled
	}
	cov.merges++
	if len(sampled) > 0 && len(sampled) < len(s.chains) {
		if partial {
			cov.skipped++
		} else {
			cov.early++
		}
	}
	if len(chains) >= 2 && len(chains) == len(sampled) {
		if prefix := shortest / s.sp.CIBatch * s.sp.CIBatch; prefix >= max(s.sp.CIBatch, 4) && prefix < shortest {
			cov.rounded++
		}
	}

	var got *Result
	var err error
	if partial {
		got, err = s.PartialResult()
	} else {
		got, err = s.Result()
	}
	if len(chains) == 0 {
		if err == nil {
			t.Fatal("PartialResult merged with no sampled chain")
		}
		return
	}
	want, werr := referenceMerge(s.sp, s.chains, chains, log)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("merge error %v, reference error %v", err, werr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge differs from reference:\n%+v\nvs\n%+v", got, want)
	}
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatalf("merge JSON differs from reference:\n%s\nvs\n%s", gb, wb)
	}
}

// runMergeSchedule merges before the first step, after every op and
// twice at the end (Result, then PartialResult), comparing each merge
// with the reference.
func runMergeSchedule(t testing.TB, spec Spec, ops []mergeOp, cov *mergeCoverage) {
	t.Helper()
	s, err := NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	log := newSampleLog(spec.Graph, s.sp)
	checkMerge(t, s, log, false, cov)
	checkMerge(t, s, log, true, cov)
	for _, op := range ops {
		if advanceBy(t, s, log, op.n, op.drive) {
			break
		}
		checkMerge(t, s, log, op.partial, cov)
	}
	advanceBy(t, s, log, 1<<30, true)
	checkMerge(t, s, log, false, cov)
	checkMerge(t, s, log, true, cov)
}

// TestIncrementalMergeMatchesReference compares every merge of seeded
// schedules over each registry walker, both cache policies and both
// stepping values with the from-scratch reference, and requires the
// schedules to reach every situation the merge handles.
func TestIncrementalMergeMatchesReference(t *testing.T) {
	g := mergeGraph(t)
	var cov mergeCoverage
	for wi, walker := range registry.WalkerNames() {
		for _, cache := range []CachePolicy{CacheIsolated, CacheShared} {
			for _, stepping := range []SteppingMode{SteppingPerChain, SteppingBatched} {
				seed := int64(wi*4 + int(cache)*2 + int(stepping) + 1)
				rng := rand.New(rand.NewSource(seed))
				spec := mergeSpec(t, g, walker, 2+rng.Intn(7), cache, stepping,
					rng.Intn(8), 1+rng.Intn(3), 2+rng.Intn(10), seed, rng.Intn(2) == 0)
				ops := make([]mergeOp, 40)
				for i := range ops {
					ops[i] = mergeOp{n: 1 + rng.Intn(30), drive: rng.Intn(4) != 0, partial: rng.Intn(4) != 0}
				}
				runMergeSchedule(t, spec, ops, &cov)
			}
		}
	}
	t.Logf("%d merges compared: %d early Results, %d partial skips, %d rounded R̂ prefixes",
		cov.merges, cov.early, cov.skipped, cov.rounded)
	if cov.early == 0 || cov.skipped == 0 || cov.rounded == 0 {
		t.Fatalf("schedules missed a merge situation: %+v", cov)
	}
}

// FuzzIncrementalMerge lets the fuzzer choose the run (walker, chains,
// cache policy, stepping mode, burn-in, thinning, batch size,
// estimators) and the merge schedule: each schedule byte advances the
// session through Next or a cancelled Drive and merges through Result
// or PartialResult. Every merge must equal the reference.
func FuzzIncrementalMerge(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(3), uint8(0), uint8(2), uint8(1), uint8(4), []byte{0x41, 0x12, 0x7f, 0x03, 0x90})
	f.Add(int64(7), uint8(0), uint8(7), uint8(3), uint8(0), uint8(0), uint8(9), []byte{0xff, 0x05, 0x06, 0x31, 0xa2, 0x17})
	f.Add(int64(-3), uint8(8), uint8(1), uint8(2), uint8(5), uint8(2), uint8(1), []byte{0x21, 0x22, 0x23})
	f.Add(int64(42), uint8(5), uint8(5), uint8(1), uint8(7), uint8(1), uint8(0), []byte{0x85, 0x86, 0x0b, 0x4c, 0x0d})
	g := mergeGraph(f)
	names := registry.WalkerNames()
	f.Fuzz(func(t *testing.T, seed int64, walkerIdx, chainsRaw, mode, burnIn, thin, ciBatch uint8, schedule []byte) {
		if len(schedule) > 64 {
			schedule = schedule[:64]
		}
		spec := mergeSpec(t, g, names[int(walkerIdx)%len(names)], 1+int(chainsRaw)%8,
			CachePolicy(mode&1), SteppingMode(mode>>1&1),
			int(burnIn)%16, 1+int(thin)%3, int(ciBatch)%13, seed, mode&4 != 0)
		ops := make([]mergeOp, len(schedule))
		for i, b := range schedule {
			ops[i] = mergeOp{n: 1 + int(b>>2), drive: b&1 != 0, partial: b&2 != 0}
		}
		runMergeSchedule(t, spec, ops, &mergeCoverage{})
	})
}
