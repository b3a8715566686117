package service

// The job store abstraction. A Manager keeps its jobs behind a
// JobStore: MemStore is the original in-process map (no durability,
// vanishes with the process), FileStore (filestore.go) adds an
// append-only event log with segments so the catalog survives a
// kill -9. The store owns two concerns the Manager used to conflate:
//
//   - the catalog: which jobs exist, in admission order, looked up by
//     ID — Add/Adopt/Get/All/Evict;
//   - every job's event log, held in every state and served to every
//     replay, and durability — RecordEvent/RecordCheckpoint/Events/
//     Recover.
//
// Eviction policy lives HERE, in evictVictims, and nowhere else: the
// Manager's store-limit eviction and FileStore's log compaction both
// call it, so the set of terminal jobs that survive a restart is the
// set the live Manager would have kept.

import (
	"fmt"
	"sync"

	"histwalk/internal/session"
)

// JobStore is the Manager's job catalog plus its durability hooks.
// Implementations must be safe for concurrent use; the catalog methods
// and the record methods may be called from different goroutines at
// once. The interface is sealed to this package (it traffics in the
// internal job type) — choose an implementation via ManagerOptions.
type JobStore interface {
	// Add admits a freshly-submitted job and the seed events its log
	// opens with, and persists its admission (spec, sequence number and
	// seed events). A failed Add must leave the catalog unchanged.
	Add(j *job, seed []Event) error
	// Adopt inserts a rehydrated job into the catalog without
	// persisting anything — its records are already durable. Recovery
	// uses it; Submit never does.
	Adopt(j *job)
	// Get looks a job up by ID.
	Get(id string) (*job, bool)
	// All returns the stored jobs in admission order.
	All() []*job
	// Evict applies the store eviction policy (evictVictims): while the
	// catalog exceeds limit, the oldest terminal jobs are dropped; live
	// jobs are never dropped. It returns the evicted IDs.
	Evict(limit int) []string
	// RecordEvent appends one event to the job's log, under the job's
	// mutex. A durable store that fails to write it still serves it,
	// and returns the error.
	RecordEvent(id string, ev Event) error
	// RecordCheckpoint persists a job's latest chain checkpoint,
	// replacing any earlier one.
	RecordCheckpoint(id string, cp *session.Checkpoint) error
	// Recover returns the durable job records in admission order, for
	// rehydration at boot: a sealed job's record carries its summary
	// and no events. Stores without durability return nil. It may be
	// called once, before the store takes any job.
	Recover() ([]JobRecord, error)
	// Events returns a copy of job id's events past index after; an
	// evicted job is ErrUnknownJob.
	Events(id string, after int) ([]Event, error)
	// Close releases the store's resources (flushing and compacting
	// durable state where applicable).
	Close() error
}

// JobRecord is the durable form of one job: everything needed to
// rebuild its catalog entry after a restart. State, error, result and
// per-chain progress are derived from the event log, which is the
// single source of truth. A sealed job's record carries the fold of its
// log, computed once when it was sealed, instead of the log itself,
// which stays in its segment.
type JobRecord struct {
	// ID is the job's deterministic identifier.
	ID string `json:"id"`
	// Seq is the admission sequence number the ID was derived from.
	Seq int `json:"seq"`
	// Spec is the wire spec the job was submitted with.
	Spec session.SpecJSON `json:"spec"`
	// Events is the job's full event log, in order; nil in a sealed
	// job's record.
	Events []Event `json:"events,omitempty"`
	// Checkpoint is the latest chain checkpoint of a running job, nil
	// for jobs that never checkpointed; Recover leaves it nil in a
	// sealed job's record.
	Checkpoint *session.Checkpoint `json:"checkpoint,omitempty"`
	// sum is a sealed job's summary, the fold of its events; nil while
	// Events holds them.
	sum *summary
}

// State derives the job's lifecycle position from its event log, or
// reads it from a sealed job's summary.
func (r *JobRecord) State() State {
	if r.sum != nil {
		return r.sum.State
	}
	if len(r.Events) == 0 {
		return StateQueued
	}
	return r.Events[len(r.Events)-1].State
}

// summary returns the job's status: a sealed record's stored summary,
// else the fold of its events.
func (r *JobRecord) summary() summary {
	if r.sum != nil {
		return *r.sum
	}
	return summarize(r.Events)
}

// storeEntry is one catalog position as the eviction policy sees it.
type storeEntry struct {
	id       string
	terminal bool
}

// evictVictims is the one store eviction policy: given the catalog in
// admission order, it returns the IDs to drop so that at most limit
// entries remain — oldest terminal first, live entries never. When
// every entry over the limit is live, fewer victims are returned and
// the catalog transiently exceeds the limit. limit <= 0 means
// unlimited. Both Manager store eviction (via JobStore.Evict) and
// FileStore log compaction decide survival through this function, so
// the two can never disagree about which terminal jobs survive.
func evictVictims(ordered []storeEntry, limit int) []string {
	if limit <= 0 {
		return nil
	}
	over := len(ordered) - limit
	if over <= 0 {
		return nil
	}
	var victims []string
	for _, e := range ordered {
		if over <= 0 {
			break
		}
		if e.terminal {
			victims = append(victims, e.id)
			over--
		}
	}
	return victims
}

// MemStore is the in-process JobStore: the Manager's original job map
// plus admission order, and each listed job's event log. It persists
// nothing — Recover returns nil.
type MemStore struct {
	mu    sync.Mutex
	jobs  map[string]*job
	logs  map[string][]Event
	order []*job
}

// NewMemStore returns an empty in-memory job store.
func NewMemStore() *MemStore {
	return &MemStore{jobs: make(map[string]*job), logs: make(map[string][]Event)}
}

// Add admits j with its seed events. It never fails for a MemStore.
func (s *MemStore) Add(j *job, seed []Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[j.id]; !ok {
		s.jobs[j.id] = j
		s.logs[j.id] = append([]Event(nil), seed...)
		s.order = append(s.order, j)
	}
	return nil
}

// Adopt inserts j into the catalog with an empty log.
func (s *MemStore) Adopt(j *job) { _ = s.Add(j, nil) }

// Get looks a job up by ID.
func (s *MemStore) Get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// All returns the stored jobs in admission order.
func (s *MemStore) All() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*job(nil), s.order...)
}

// Evict applies evictVictims to the catalog, dropping each victim's
// log. Job states are read outside the store lock (stateNow takes the
// job's own mutex); a job can only move toward terminal, so a chosen
// victim stays evictable.
func (s *MemStore) Evict(limit int) []string {
	s.mu.Lock()
	snapshot := append([]*job(nil), s.order...)
	s.mu.Unlock()
	ordered := make([]storeEntry, len(snapshot))
	for i, j := range snapshot {
		ordered[i] = storeEntry{id: j.id, terminal: j.stateNow().Terminal()}
	}
	victims := evictVictims(ordered, limit)
	if len(victims) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range victims {
		if _, ok := s.jobs[id]; !ok {
			continue
		}
		delete(s.jobs, id)
		delete(s.logs, id)
		for i, j := range s.order {
			if j.id == id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
	return victims
}

// RecordEvent appends ev to job id's log.
func (s *MemStore) RecordEvent(id string, ev Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.logs[id]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	s.logs[id] = append(s.logs[id], ev)
	return nil
}

// RecordCheckpoint is a no-op: MemStore offers no durability.
func (s *MemStore) RecordCheckpoint(string, *session.Checkpoint) error { return nil }

// Recover returns nil: nothing survives a MemStore's process.
func (s *MemStore) Recover() ([]JobRecord, error) { return nil, nil }

// Events returns a copy of job id's events past index after.
func (s *MemStore) Events(id string, after int) ([]Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	evs, ok := s.logs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return append([]Event(nil), evs[min(after, len(evs)):]...), nil
}

// Close is a no-op.
func (s *MemStore) Close() error { return nil }
