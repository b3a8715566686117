package main

import (
	"context"
	"time"

	"histwalk"
)

// replica is the time one op's session spent in NewSession, Result and
// Checkpoint.
type replica struct {
	newSession, result, checkpoint time.Duration
}

// replicate drives spec's session with NextContext the way the service
// drives a job: with ticks > 0, a running-estimate merge (Result) each
// time a chain's spend crosses the next budget/ticks stride and a
// Checkpoint every cpEvery-th merge, then the two final merges. With
// ticks == 0 it is the library's pattern instead: one merge at the end,
// plus one Checkpoint of the final state.
func replicate(ctx context.Context, spec histwalk.Spec, ticks, cpEvery int) (replica, error) {
	var rp replica
	t0 := time.Now()
	sess, err := histwalk.NewSession(spec)
	rp.newSession = time.Since(t0)
	if err != nil {
		return rp, err
	}
	defer sess.Close()
	merge := func() error {
		t := time.Now()
		_, err := sess.Result()
		rp.result += time.Since(t)
		return err
	}
	checkpoint := func() {
		t := time.Now()
		sess.Checkpoint()
		rp.checkpoint += time.Since(t)
	}
	chains := max(spec.Chains, 1)
	stride := 0
	if ticks > 0 {
		stride = max(spec.Budget/ticks, 1)
	}
	next := make([]int, chains)
	for i := range next {
		next[i] = stride
	}
	merges := 0
	for {
		u, ok, err := sess.NextContext(ctx)
		if err != nil {
			return rp, err
		}
		if !ok {
			break
		}
		if stride == 0 || u.Spent < next[u.Chain] {
			continue
		}
		for next[u.Chain] <= u.Spent {
			next[u.Chain] += stride
		}
		_ = merge() // mid-run merges fail until every chain has a sample, as in the service
		if merges++; merges%cpEvery == 0 {
			checkpoint()
		}
	}
	if stride > 0 {
		_ = merge() // the final running estimates
	} else {
		checkpoint()
	}
	return rp, merge()
}

// setReplica times NewSession, Result and Checkpoint on a replica of
// each spec's session (see replicate) and records their means per op;
// it returns the Result and Checkpoint means in ms.
func setReplica(ctx context.Context, r *report, specs []histwalk.Spec, ticks, cpEvery int) (resultMs, checkpointMs float64) {
	var newMs, resMs, cpMs []float64
	for i, spec := range specs {
		rp, err := replicate(ctx, spec, ticks, cpEvery)
		if err != nil {
			r.fail("replica of op %d: %v", i, err)
			continue
		}
		newMs = append(newMs, ms(rp.newSession))
		resMs = append(resMs, ms(rp.result))
		cpMs = append(cpMs, ms(rp.checkpoint))
	}
	r.set("session.new_ms", mean(newMs), "ms", len(newMs))
	r.set("session.result_ms", mean(resMs), "ms", len(resMs))
	r.set("session.checkpoint_ms", mean(cpMs), "ms", len(cpMs))
	return mean(resMs), mean(cpMs)
}
