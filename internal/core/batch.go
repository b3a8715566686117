package core

import (
	"cmp"
	"fmt"
	"slices"

	"histwalk/internal/access"
	"histwalk/internal/graph"
)

// Batched multi-chain stepping. A BatchStepper advances K walkers in
// lockstep rounds over one underlying graph, holding the cross-chain
// state in structure-of-arrays form (current nodes, round order,
// activity flags) instead of K independent step loops. Each round it
// sorts the live chains by current node, so:
//
//   - CSR row reads are gathered in ascending offset order (a single
//     forward sweep through the adjacency arena instead of K random
//     jumps per K steps), and
//   - chains parked on the same node are adjacent: the first fetches
//     the row, the rest charge their own client through access.Toucher
//     and reuse the bytes.
//
// The contract is interleaving-only: each chain consumes its own
// walker's RNG stream in exactly the sequential order, its client is
// charged exactly the sequential per-chain QueryCost/TotalRequests,
// and its trajectory is bit-identical to stepping it alone — only the
// order in which *different* chains' steps execute changes. That holds
// because a walker's transition reads and writes nothing outside its
// own state and its own client (advanceOn neither retains nor modifies
// the row), so steps of different chains commute.
//
// A BatchStepper is single-goroutine: rounds are a serial loop, which
// is what makes row reuse sound without locks. Concurrency belongs one
// layer up (e.g. several steppers, one per goroutine).

// BatchChain pairs one walker with the client it was built over.
type BatchChain struct {
	Walker Walker
	Client access.Client
}

// BatchOptions configures a BatchStepper.
type BatchOptions struct {
	// ShareRows asserts that all chains' clients serve element-wise
	// identical neighbor rows for the same node — true whenever they
	// wrap one underlying graph (per-chain Simulators over one
	// graph.Graph). It enables same-node row reuse for clients that
	// implement access.Toucher; clients that do not (e.g. Budgeted,
	// whose admission rule is more than accounting) fetch per chain
	// regardless.
	ShareRows bool
}

// BatchStepper advances K chains in lockstep rounds. See the package
// section above for the contract; use NewBatchStepper to construct.
type BatchStepper struct {
	chains    []BatchChain
	steppers  []batchable // chains[i].Walker, asserted once
	shareRows bool

	// Structure-of-arrays chain state.
	cur    []graph.Node // chains[i].Walker.Current(), mirrored
	active []bool

	order []int32 // live chains of the current round, sorted by (cur, idx)
	pos   int     // next index into order
	byCur func(x, y int32) int

	rowbuf []graph.Node // shared fetch buffer for non-stable-row clients
	// Last fetched row, for same-node reuse within a round.
	lastNode  graph.Node
	lastRow   []graph.Node
	lastValid bool
}

// NewBatchStepper builds a stepper over the given chains. Every
// chain's walker must support batched stepping (all registry walkers
// do; the frontier samplers and Degraded fallbacks do not) and should
// be freshly constructed or previously stepped only through a
// BatchStepper — the stepper mirrors each walker's current node at
// construction, so hand-stepping a walker between rounds is fine as
// long as it happens through StepNext.
//
// The stepper shares rows, not walker state: GNRW chains keep whatever
// stratum tables they were built with. A Session wires its GNRW chains
// to one table per grouper (ShareStrata) in both stepping modes; a
// standalone stepper over fresh walkers shares no strata.
func NewBatchStepper(chains []BatchChain, opts BatchOptions) (*BatchStepper, error) {
	if len(chains) == 0 {
		return nil, fmt.Errorf("core: batch stepper needs >= 1 chain")
	}
	b := &BatchStepper{
		chains:    chains,
		steppers:  make([]batchable, len(chains)),
		shareRows: opts.ShareRows,
		cur:       make([]graph.Node, len(chains)),
		active:    make([]bool, len(chains)),
		order:     make([]int32, 0, len(chains)),
	}
	for i, ch := range chains {
		if ch.Walker == nil || ch.Client == nil {
			return nil, fmt.Errorf("core: batch chain %d has a nil walker or client", i)
		}
		s, ok := ch.Walker.(batchable)
		if !ok {
			return nil, fmt.Errorf("core: walker %q (chain %d) does not support batched stepping", ch.Walker.Name(), i)
		}
		b.steppers[i] = s
		b.cur[i] = ch.Walker.Current()
		b.active[i] = true
	}
	b.byCur = func(x, y int32) int {
		if c := cmp.Compare(b.cur[x], b.cur[y]); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	}
	return b, nil
}

// NumChains returns K.
func (b *BatchStepper) NumChains() int { return len(b.chains) }

// IsActive reports whether chain c still participates in rounds.
func (b *BatchStepper) IsActive(c int) bool { return b.active[c] }

// Deactivate removes chain c from all future rounds (and from the
// remainder of the current one). Used when a chain completes its
// sample, exhausts its budget, or errors.
func (b *BatchStepper) Deactivate(c int) { b.active[c] = false }

// BeginRound starts a new round over the currently active chains and
// returns how many will step. The chains step in ascending (current
// node, chain index) order, which is what gathers CSR reads and makes
// same-node chains adjacent.
func (b *BatchStepper) BeginRound() int {
	b.order = b.order[:0]
	for i, a := range b.active {
		if a {
			b.order = append(b.order, int32(i))
		}
	}
	slices.SortFunc(b.order, b.byCur)
	b.pos = 0
	b.lastValid = false
	return len(b.order)
}

// StepNext advances the next chain of the current round by one
// transition. It returns the chain index, the node the chain arrived
// at (its unchanged current node if err != nil) and ok = true; once
// the round is exhausted it returns ok = false. A chain that was
// deactivated after the round began is skipped.
//
// Errors are per chain — fetch errors, dead ends, budget exhaustion —
// and do not disturb the round: the caller decides whether to
// Deactivate the chain and keeps stepping the rest.
func (b *BatchStepper) StepNext() (chain int, v graph.Node, ok bool, err error) {
	for b.pos < len(b.order) {
		c := int(b.order[b.pos])
		b.pos++
		if !b.active[c] {
			continue
		}
		u := b.cur[c]
		row, err := b.fetchRow(b.chains[c].Client, u)
		if err != nil {
			return c, u, true, err
		}
		v, err := b.steppers[c].advanceOn(row)
		if err != nil {
			return c, u, true, err
		}
		b.cur[c] = v
		return c, v, true, nil
	}
	return -1, -1, false, nil
}

// fetchRow obtains u's neighbor row for one chain, charging cl exactly
// what a sequential NeighborsAppend would: when the previous chain of
// this round fetched the same node's row and cl supports Touch, the
// charge happens without re-materializing the bytes; otherwise the row
// is read zero-copy from stable-row clients or copied into the shared
// buffer.
func (b *BatchStepper) fetchRow(cl access.Client, u graph.Node) ([]graph.Node, error) {
	if b.shareRows && b.lastValid && b.lastNode == u {
		if t, ok := cl.(access.Toucher); ok {
			if err := t.Touch(u); err != nil {
				return nil, err
			}
			return b.lastRow, nil
		}
	}
	var row []graph.Node
	if _, ok := cl.(access.StableRower); ok {
		r, err := cl.Neighbors(u)
		if err != nil {
			return nil, err
		}
		row = r
	} else {
		r, err := cl.NeighborsAppend(b.rowbuf[:0], u)
		if err != nil {
			return nil, err
		}
		b.rowbuf = r
		row = r
	}
	b.lastNode, b.lastRow, b.lastValid = u, row, true
	return row, nil
}
