package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"histwalk/internal/estimate"
)

func TestTrialSeedStreamsDisjoint(t *testing.T) {
	// Two experiments sharing a master seed but labeled differently must
	// draw fully distinct trial-seed sequences — the additive scheme
	// (seed + trial) this replaces collided whenever offsets overlapped.
	const master = 1
	sa, sb := StreamID("estimation", "fig6"), StreamID("estimation", "fig7d")
	if sa == sb {
		t.Fatal("distinct labels hashed to the same stream")
	}
	seen := make(map[int64]string)
	for trial := 0; trial < 10000; trial++ {
		a := TrialSeed(master, sa, trial)
		b := TrialSeed(master, sb, trial)
		if a == b {
			t.Fatalf("trial %d: seed collision across streams", trial)
		}
		for seed, origin := range map[int64]string{a: "A", b: "B"} {
			if prev, dup := seen[seed]; dup {
				t.Fatalf("seed %d drawn twice (%s then %s)", seed, prev, origin)
			}
			seen[seed] = origin
		}
	}
}

func TestTrialSeedSharedWithinStream(t *testing.T) {
	// Algorithms compared within one figure run their trials under one
	// Stream, and must see identical per-trial seeds (paired starts).
	s := StreamID("estimation", "fig6")
	for trial := 0; trial < 100; trial++ {
		if TrialSeed(3, s, trial) != TrialSeed(3, s, trial) {
			t.Fatal("TrialSeed is not a pure function")
		}
	}
}

func TestStreamIDSeparatesConcatenations(t *testing.T) {
	if StreamID("ab", "c") == StreamID("a", "bc") {
		t.Fatal("StreamID must separate label boundaries")
	}
	if StreamID() == StreamID("") {
		t.Fatal("empty label must differ from no labels")
	}
}

func TestEachFirstErrorWins(t *testing.T) {
	// Every trial fails; the reported error must deterministically be
	// the lowest-index one among observed failures — with Workers=1,
	// exactly index 0.
	errBoom := errors.New("boom")
	err := New(Options{Workers: 1}).Each(context.Background(), 10, func(_ context.Context, i int) error {
		return fmt.Errorf("trial %d: %w", i, errBoom)
	})
	if err == nil || !errors.Is(err, errBoom) {
		t.Fatalf("err = %v", err)
	}
	if err.Error() != "trial 0: boom" {
		t.Fatalf("serial first error = %q, want trial 0", err)
	}
	// Parallel: some error must surface and cancel the rest.
	var ran atomic.Int64
	err = New(Options{Workers: 4}).Each(context.Background(), 1000, func(_ context.Context, i int) error {
		ran.Add(1)
		return fmt.Errorf("trial %d: %w", i, errBoom)
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("error did not cancel remaining work (ran %d)", n)
	}
}

func TestEachContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := New(Options{Workers: 2}).Each(ctx, 100000, func(ctx context.Context, i int) error {
		if ran.Add(1) == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 100000 {
		t.Fatal("cancellation did not stop the pool")
	}
}

func TestDesignFor(t *testing.T) {
	if DesignFor("MHRW") != estimate.Uniform {
		t.Fatal("MHRW should be uniform")
	}
	for _, n := range []string{"SRW", "NB-SRW", "CNRW", "GNRW(By-Degree)", "NB-CNRW"} {
		if DesignFor(n) != estimate.DegreeProportional {
			t.Fatalf("%s should be degree-proportional", n)
		}
	}
}

func TestWorkersDefault(t *testing.T) {
	if w := New(Options{}).Workers(); w < 1 {
		t.Fatalf("default workers = %d", w)
	}
	if w := New(Options{Workers: 3}).Workers(); w != 3 {
		t.Fatalf("workers = %d, want 3", w)
	}
}

// TestEachReturnsCancellationCause asserts that cancelling the caller's
// ctx with an explicit cause surfaces that cause from Each — the
// mechanism a job manager uses to distinguish "this job was cancelled"
// from "the whole pool is shutting down". The trial blocks mid-run on
// ctx.Done, so this also covers cancellation landing while work is in
// flight, not just between dispatches.
func TestEachReturnsCancellationCause(t *testing.T) {
	errJobCancelled := errors.New("job cancelled by operator")
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancelCause(context.Background())
		var started sync.Once
		err := New(Options{Workers: workers}).Each(ctx, 64, func(ctx context.Context, i int) error {
			started.Do(func() { cancel(errJobCancelled) })
			<-ctx.Done() // mid-trial: block until the cancellation arrives
			return nil
		})
		if !errors.Is(err, errJobCancelled) {
			t.Fatalf("workers=%d: err = %v, want errJobCancelled cause", workers, err)
		}
		cancel(nil)
	}
}

// TestEachCancelledCauseAlreadyExpired asserts the cause is also
// reported when the ctx arrives already cancelled.
func TestEachCancelledCauseAlreadyExpired(t *testing.T) {
	cause := errors.New("expired before submission")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := New(Options{Workers: workers}).Each(ctx, 16, func(context.Context, int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, cause) {
			t.Fatalf("workers=%d: err = %v, want pre-set cause", workers, err)
		}
		if workers == 1 && ran.Load() != 0 {
			t.Fatalf("serial path ran %d trials under a dead ctx", ran.Load())
		}
	}
}

// TestEachSiblingSubmissionsIsolated runs two concurrent submissions on
// one shared Engine and cancels only the first: the sibling must finish
// all its work unpoisoned, which is what lets a job manager schedule
// many jobs over one engine configuration.
func TestEachSiblingSubmissionsIsolated(t *testing.T) {
	eng := New(Options{Workers: 4})
	ctxA, cancelA := context.WithCancelCause(context.Background())
	defer cancelA(nil)
	errA := errors.New("job A cancelled")
	release := make(chan struct{})

	var wg sync.WaitGroup
	var gotA error
	wg.Add(1)
	go func() {
		defer wg.Done()
		var once sync.Once
		gotA = eng.Each(ctxA, 32, func(ctx context.Context, i int) error {
			once.Do(func() {
				close(release) // let the sibling start once A is mid-flight
				cancelA(errA)
			})
			<-ctx.Done()
			return nil
		})
	}()

	<-release
	var ranB atomic.Int64
	if err := eng.Each(context.Background(), 100, func(context.Context, int) error {
		ranB.Add(1)
		return nil
	}); err != nil {
		t.Fatalf("sibling submission failed: %v", err)
	}
	if ranB.Load() != 100 {
		t.Fatalf("sibling ran %d/100 trials", ranB.Load())
	}
	wg.Wait()
	if !errors.Is(gotA, errA) {
		t.Fatalf("cancelled submission err = %v, want its own cause", gotA)
	}
}
