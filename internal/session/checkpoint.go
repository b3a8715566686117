package session

// Chain checkpoints and crash-resume. A Checkpoint is a compact,
// JSON-serializable snapshot of a Session's per-chain progress: steps
// taken, budget spent, retained-sample count, RNG stream position,
// current node and the chain's running digest of its retained samples,
// so taking one costs O(chains). ResumeFrom rebuilds that state on a
// fresh Session by deterministic replay — each chain is re-advanced
// through the exact normal stepping path until it reaches its
// checkpointed step count — and then verifies every recorded field
// against the replayed state.
//
// Replay is the only resume mechanism that can honor the house
// invariant without exception: a resumed run IS a never-interrupted
// run, because every byte of chain state (walker history, RNG
// position, cache contents, estimator accumulators) is regenerated by
// the same code that produced it the first time. The checkpoint's
// role is therefore (a) to mark how far to replay and (b) to detect
// corruption or drift: if the replayed chain disagrees with the
// checkpoint on any field — including the digest of every retained
// sample — ResumeFrom fails with ErrCheckpointMismatch rather than
// silently continuing a different walk.
//
// Replay costs the same CPU as the original prefix (microseconds per
// step in Graph mode), but no wall-clock latency in pipelined
// simulation (the cache rebuild pays no simulated latency twice) and
// no operator attention. In live-Transport mode replay re-issues the
// prefix's network fetches; what the remote endpoint serves on the
// second pass is outside the replay guarantee, as everywhere else.

import (
	"context"
	"errors"
	"fmt"
)

// ErrCheckpointMismatch reports that replaying a checkpoint produced a
// chain state that disagrees with the checkpoint's recorded fields —
// the checkpoint is corrupt, belongs to a different spec, or the code
// it was written by is not replay-compatible with the running build.
var ErrCheckpointMismatch = errors.New("session: replayed chain state does not match checkpoint")

// Checkpoint is a serializable snapshot of a Session's progress,
// sufficient to resume the run after a crash with a bit-identical
// final Result. It is meaningful only together with the exact Spec
// (or wire SpecJSON) the session was built from.
type Checkpoint struct {
	// Chains holds one entry per chain, in chain order.
	Chains []ChainCheckpoint `json:"chains"`
}

// ChainCheckpoint records one chain's replay position and the
// verification fields pinning the replayed state.
type ChainCheckpoint struct {
	// Chain is the chain index.
	Chain int `json:"chain"`
	// Steps is the number of transitions performed.
	Steps int `json:"steps"`
	// Spent is the budget spend under the spec's cost model.
	Spent int `json:"spent"`
	// Samples is the retained-sample count after burn-in/thinning.
	Samples int `json:"samples"`
	// Draws is the RNG stream position: every draw the chain's RNG has
	// served, the start draw included.
	Draws uint64 `json:"rng_draws"`
	// Node is the walker's current node.
	Node int64 `json:"node"`
	// Digest hashes the chain's retained samples: starting from the
	// FNV-64 offset basis, each sample's degree and then each
	// estimator's raw value, in retention order, is folded in as one
	// 64-bit word by an xor and a multiply by the FNV-64 prime (see
	// digestWord). The chain keeps it running, so a checkpoint reads it
	// in O(1). It is rendered as 16 hex digits — a string so consumers
	// without exact 64-bit integers round-trip it losslessly.
	Digest string `json:"digest"`
	// Done marks a chain that had already reached its stop condition.
	Done bool `json:"done,omitempty"`
}

// draws returns the chain's RNG stream position (0 when the RNG source
// could not be wrapped for counting; see chainRNG).
func (cr *chainRun) draws() uint64 {
	if cr.rngDraws == nil {
		return 0
	}
	return *cr.rngDraws
}

// digestBasis and digestPrime are the FNV-64 offset basis and prime.
const (
	digestBasis uint64 = 14695981039346656037
	digestPrime uint64 = 1099511628211
)

// digestWord folds one 64-bit word into a running sample digest. Both
// the xor and the multiply by the odd prime are bijections, so a
// change to any single word always changes the digest.
func digestWord(h, w uint64) uint64 { return (h ^ w) * digestPrime }

// checkpoint snapshots the chain.
func (cr *chainRun) checkpoint(sp *Spec) ChainCheckpoint {
	return ChainCheckpoint{
		Chain:   cr.idx,
		Steps:   cr.steps,
		Spent:   cr.spend(sp),
		Samples: cr.samples,
		Draws:   cr.draws(),
		Node:    int64(cr.walker.Current()),
		Digest:  fmt.Sprintf("%016x", cr.digest),
		Done:    cr.done,
	}
}

// verify checks the replayed chain against its checkpoint.
func (cr *chainRun) verify(sp *Spec, c ChainCheckpoint) error {
	mismatch := func(field string, got, want any) error {
		return fmt.Errorf("%w: chain %d %s: replayed %v, checkpoint %v",
			ErrCheckpointMismatch, cr.idx, field, got, want)
	}
	if cr.steps != c.Steps {
		return mismatch("steps", cr.steps, c.Steps)
	}
	if got := cr.spend(sp); got != c.Spent {
		return mismatch("spent", got, c.Spent)
	}
	if got := cr.samples; got != c.Samples {
		return mismatch("samples", got, c.Samples)
	}
	if got := cr.draws(); got != c.Draws {
		return mismatch("rng_draws", got, c.Draws)
	}
	if got := int64(cr.walker.Current()); got != c.Node {
		return mismatch("node", got, c.Node)
	}
	if got := fmt.Sprintf("%016x", cr.digest); got != c.Digest {
		return mismatch("digest", got, c.Digest)
	}
	if cr.done != c.Done {
		return mismatch("done", cr.done, c.Done)
	}
	return nil
}

// Checkpoint snapshots the session's per-chain progress. It must not
// run concurrently with Next or Drive (call it from the goroutine
// driving the session, between transitions); the returned value is an
// independent copy, safe to serialize while stepping continues.
func (s *Session) Checkpoint() *Checkpoint {
	cp := &Checkpoint{Chains: make([]ChainCheckpoint, len(s.chains))}
	for i, cr := range s.chains {
		cp.Chains[i] = cr.checkpoint(s.sp)
	}
	return cp
}

// ResumeFrom advances a freshly-constructed Session to the state cp
// was taken at, by replaying each chain through the normal stepping
// path up to its checkpointed step count (chains marked done are run
// out to their stop condition). After replay every chain is verified
// field-by-field against the checkpoint — any disagreement fails with
// ErrCheckpointMismatch. On success, stepping the session onward
// produces exactly the transitions an uninterrupted run would have
// produced — Next picks up that run's round-robin rotation, so every
// later Update and mid-run merge matches too — and the final Result is
// bit-identical to that run's.
//
// The session must not have been stepped yet; a ctx cancellation
// aborts the replay with the ctx cause. On any error the session is
// left mid-replay and must be discarded (build a fresh Session to run
// from scratch instead).
func (s *Session) ResumeFrom(ctx context.Context, cp *Checkpoint) error {
	if cp == nil {
		return nil
	}
	if len(cp.Chains) != len(s.chains) {
		return fmt.Errorf("%w: checkpoint has %d chains, spec has %d",
			ErrCheckpointMismatch, len(cp.Chains), len(s.chains))
	}
	for _, cr := range s.chains {
		if cr.steps != 0 {
			return errors.New("session: ResumeFrom requires an unstepped session")
		}
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for i, c := range cp.Chains {
		if c.Chain != i {
			return fmt.Errorf("%w: entry %d records chain index %d",
				ErrCheckpointMismatch, i, c.Chain)
		}
		cr := s.chains[i]
		if c.Steps < 0 {
			return fmt.Errorf("%w: chain %d has negative steps %d",
				ErrCheckpointMismatch, i, c.Steps)
		}
		for cr.steps < c.Steps && !cr.done {
			select {
			case <-done:
				return context.Cause(ctx)
			default:
			}
			if _, err := cr.advance(s.sp); err != nil {
				return fmt.Errorf("session: replaying chain %d to step %d: %w", i, c.Steps, err)
			}
		}
		if c.Done && !cr.done {
			// The checkpointed chain stopped exactly at Steps; the stop
			// must re-fire on the next gate without another transition.
			stepped, err := cr.advance(s.sp)
			if err != nil {
				return fmt.Errorf("session: replaying chain %d stop condition: %w", i, err)
			}
			if stepped {
				return fmt.Errorf("%w: chain %d advanced past its checkpointed end",
					ErrCheckpointMismatch, i)
			}
		}
		if err := cr.verify(s.sp, c); err != nil {
			return err
		}
	}
	s.cursor = rotation(s.chains)
	return nil
}

// rotation derives Next's round-robin cursor from the chains' steps and
// done flags. Next moves each active chain once per rotation, in index
// order, so mid-rotation the active chains it already moved are one
// step ahead of the others and form a prefix of the active chains. The
// cursor is the first active chain that is not ahead, or 0 when none
// is (a rotation boundary).
func rotation(chains []*chainRun) int {
	lead := -1
	for _, cr := range chains {
		if !cr.done {
			lead = max(lead, cr.steps)
		}
	}
	for c, cr := range chains {
		if !cr.done && cr.steps < lead {
			return c
		}
	}
	return 0
}
