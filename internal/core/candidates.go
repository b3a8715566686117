package core

import "histwalk/internal/graph"

// CandidateAdvertiser is the narrow hint seam between walkers and the
// pipelined access layer's speculative prefetch. Candidates returns
// the most recently fetched neighbor list — the candidate set the last
// transition drew from, which contains the walk's current position —
// so a prefetcher can warm exactly the neighborhood frontier the walk
// is about to demand (the current node's row is among the candidates'
// rows; one level of recursive warming covers the step after that).
//
// The returned slice aliases walker-owned scratch: callers must treat
// it as read-only and must not retain it across the next Step call.
// It is empty before the first Step. Candidates never consumes RNG and
// has no effect on the walk: implementations only expose state Step
// already computed, which is what keeps speculative prefetch outside
// the determinism boundary.
type CandidateAdvertiser interface {
	Candidates() []graph.Node
}

// Candidates implements CandidateAdvertiser.
func (w *SRW) Candidates() []graph.Node { return w.nbuf }

// Candidates implements CandidateAdvertiser.
func (w *MHRW) Candidates() []graph.Node { return w.nbuf }

// Candidates implements CandidateAdvertiser.
func (w *NBSRW) Candidates() []graph.Node { return w.nbuf }

// Candidates implements CandidateAdvertiser.
func (w *CNRW) Candidates() []graph.Node { return w.nbuf }

// Candidates implements CandidateAdvertiser.
func (w *CNRWNode) Candidates() []graph.Node { return w.nbuf }

// Candidates implements CandidateAdvertiser.
func (w *NBCNRW) Candidates() []graph.Node { return w.nbuf }

// Candidates implements CandidateAdvertiser.
func (w *GNRW) Candidates() []graph.Node { return w.nbuf }
