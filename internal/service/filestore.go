package service

// FileStore: the durable JobStore, laid out like a log-structured file
// system (LFS, Rosenblum & Ousterhout 1992). Files in the store
// directory, and the record kinds each holds:
//
//	events.log            submit, event, cp, evict: every change since
//	                      the last compaction, appended
//	segment-NNNNNN.jsonl  job records of the jobs one compaction found
//	                      newly terminal, then end; never rewritten
//	snapshot.jsonl        the manifest: job records of live (queued or
//	                      running) jobs, an evict tombstone per evicted
//	                      job whose segment still exists, then end
//
// Every line is framed as "%08x SP payload \n", the hex field being the
// CRC-32C (Castagnoli, as in internal/graphstore) of the payload.
// Appends go straight through os.File.Write — no userspace buffer — so
// a record survives a kill -9 of the process the moment RecordEvent
// returns (machine-crash durability would need fsync per record; a job
// service trades that for write latency, as graphstore does).
//
// Compaction runs under fs.mu when the log outgrows CompactBytes, and
// at Close: (1) apply evictVictims (store.go) to every job in the
// mirror, sealed or not, in admission order; (2) seal the newly
// terminal survivors into a new segment, skipped when there are none;
// (3) delete every segment whose jobs are all evicted; (4) write the
// manifest; (5) truncate the log. Segments and the manifest are
// streamed through a bufio.Writer to a temp file, fsynced and renamed.
// A finished job is thus written once, and compaction costs O(live +
// newly sealed jobs), not O(catalog). A crash after step 2 leaves the
// new segment's jobs live in the old manifest, and rule (a) below keeps
// their sealed records. After step 3, the deleted segments' jobs are
// evicted by the old manifest's tombstones or the log's evict records;
// a new manifest written first would drop those tombstones while the
// segment still existed. After step 4, log replay is idempotent. A job
// evicted by compaction's own policy has no evict record, so a crash
// before step 4 may bring it back as terminal history, as the
// single-snapshot layout could.
//
// Recovery removes leftover *.tmp files, then loads the segments in
// numeric order, the manifest, and the log's longest valid prefix,
// truncating the log's corrupt tail (a torn final append). Two rules
// keep the fold idempotent: (a) a job record never replaces a terminal
// record already loaded; (b) an evict of an unknown job is a no-op;
// events are appended by sequence number. The manifest and segments
// are committed by rename, so a bad line in one is corruption, not a
// torn append: each must decode whole and end in an end record whose n
// counts the records before it, or OpenFileStore fails naming the file.
// A store written before segments existed is a manifest that still
// lists terminal jobs; the first compaction seals them.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"histwalk/internal/session"
)

const (
	logName      = "events.log"
	snapshotName = "snapshot.jsonl"
)

var storeCRC = crc32.MakeTable(crc32.Castagnoli)

// segmentName is segment n's file name; numbers only grow.
func segmentName(n int) string { return fmt.Sprintf("segment-%06d.jsonl", n) }

// logRec is one line of the event log, a segment or the manifest.
type logRec struct {
	// Kind discriminates the record: "submit" (job admission: ID, Seq,
	// Spec), "event" (one appended Event), "cp" (checkpoint
	// replacement), "evict" (catalog removal; a manifest tombstone),
	// "job" (segment and manifest: one full JobRecord), "end" (segment
	// and manifest commit marker with the count of records before it).
	Kind       string              `json:"k"`
	ID         string              `json:"id,omitempty"`
	Seq        int                 `json:"seq,omitempty"`
	Spec       *session.SpecJSON   `json:"spec,omitempty"`
	Event      *Event              `json:"ev,omitempty"`
	Checkpoint *session.Checkpoint `json:"cp,omitempty"`
	Job        *JobRecord          `json:"job,omitempty"`
	Count      int                 `json:"n,omitempty"`
}

// encodeRec frames one payload as a CRC-checked log line.
func encodeRec(buf []byte, payload []byte) []byte {
	buf = fmt.Appendf(buf, "%08x ", crc32.Checksum(payload, storeCRC))
	buf = append(buf, payload...)
	return append(buf, '\n')
}

// decodeLine verifies and strips one complete line's framing (without
// the trailing newline), returning the payload.
func decodeLine(line []byte) ([]byte, error) {
	if len(line) < 9 || line[8] != ' ' {
		return nil, fmt.Errorf("service: malformed log line framing")
	}
	var want uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &want); err != nil {
		return nil, fmt.Errorf("service: malformed log line CRC: %w", err)
	}
	payload := line[9:]
	if got := crc32.Checksum(payload, storeCRC); got != want {
		return nil, fmt.Errorf("service: log line CRC mismatch: %08x != %08x", got, want)
	}
	return payload, nil
}

// decodeLog parses the longest valid prefix of data: complete,
// CRC-clean, JSON-decodable lines. It returns the decoded records and
// the byte length of that prefix — everything past it (a torn final
// append, bit rot) is the corrupt tail the caller truncates away.
func decodeLog(data []byte) (recs []logRec, valid int) {
	for valid < len(data) {
		nl := bytes.IndexByte(data[valid:], '\n')
		if nl < 0 {
			return recs, valid // partial final line
		}
		payload, err := decodeLine(data[valid : valid+nl])
		if err != nil {
			return recs, valid
		}
		var rec logRec
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, valid
		}
		recs = append(recs, rec)
		valid += nl + 1
	}
	return recs, valid
}

// readCommitted reads a file committed by rename — a segment or the
// manifest — and returns its records without the end marker. The file
// must decode whole and end in an end record counting the records
// before it.
func readCommitted(path string) ([]logRec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	recs, valid := decodeLog(data)
	if valid < len(data) {
		return nil, fmt.Errorf("service: %s is corrupt at byte %d", path, valid)
	}
	if n := len(recs) - 1; n < 0 || recs[n].Kind != "end" || recs[n].Count != n {
		return nil, fmt.Errorf("service: %s lacks a valid end marker", path)
	}
	return recs[:len(recs)-1], nil
}

// FileStoreOptions configures a FileStore. The zero value selects the
// documented defaults.
type FileStoreOptions struct {
	// CompactBytes triggers compaction when the live log exceeds it
	// (0 = 4 MiB).
	CompactBytes int64
}

func (o FileStoreOptions) withDefaults() FileStoreOptions {
	if o.CompactBytes <= 0 {
		o.CompactBytes = 4 << 20
	}
	return o
}

// sealedJob is the mirror's index entry for a job in a segment.
type sealedJob struct {
	seq int // admission sequence number
	seg int // segment number
}

// segment is one segment file's share of the catalog.
type segment struct {
	jobs int      // jobs sealed into it
	dead []string // its evicted jobs: manifest tombstones while it exists
}

// FileStore is the durable JobStore: a MemStore catalog for the live
// process plus an append-only log, segments and a manifest on disk.
// The mirror — the JobRecord view of the catalog — is maintained from
// the appends themselves, so compaction never reads live job state and
// takes no job mutexes. It holds the full record of every unsealed job
// and an index entry per sealed one.
type FileStore struct {
	mem  *MemStore
	dir  string
	opts FileStoreOptions

	mu       sync.Mutex
	log      *os.File
	logBytes int64
	// recs holds the unsealed jobs: live ones and those that turned
	// terminal since the last compaction. Between OpenFileStore and
	// Recover it also holds the sealed jobs' decoded records.
	recs    map[string]*JobRecord
	sealed  map[string]sealedJob
	segs    map[int]*segment
	lastSeg int  // highest segment number written or loaded
	limit   int  // last Evict limit; re-applied at compaction (0 = none yet)
	closed  bool // Close has run
}

// OpenFileStore opens (or creates) the store directory and loads the
// segments, the manifest and the log's valid prefix, truncating any
// corrupt log tail. A corrupt segment or manifest is an error. The
// returned store's Recover holds every job the process knew before it
// died.
func OpenFileStore(dir string, opts FileStoreOptions) (*FileStore, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: creating store dir: %w", err)
	}
	fs := &FileStore{
		mem:    NewMemStore(),
		dir:    dir,
		opts:   opts,
		recs:   make(map[string]*JobRecord),
		sealed: make(map[string]sealedJob),
		segs:   make(map[int]*segment),
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("service: reading store dir: %w", err)
	}
	var nums []int
	for _, e := range ents {
		name := e.Name()
		var n int
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(name, ".tmp") {
			// An uncommitted write of an interrupted compaction.
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("service: removing %s: %w", name, err)
			}
		} else if _, err := fmt.Sscanf(name, "segment-%d.jsonl", &n); err == nil && segmentName(n) == name {
			nums = append(nums, n)
		}
	}
	slices.Sort(nums)
	for _, n := range nums {
		recs, err := readCommitted(filepath.Join(dir, segmentName(n)))
		if err != nil {
			return nil, err
		}
		fs.apply(recs)
		seg := &segment{}
		for _, r := range recs {
			if r.Kind != "job" || r.Job == nil {
				continue
			}
			if _, dup := fs.sealed[r.Job.ID]; !dup {
				fs.sealed[r.Job.ID] = sealedJob{seq: r.Job.Seq, seg: n}
				seg.jobs++
			}
		}
		fs.segs[n] = seg
		fs.lastSeg = n
	}
	if recs, err := readCommitted(filepath.Join(dir, snapshotName)); err == nil {
		fs.apply(recs)
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("service: reading manifest: %w", err)
	}
	logPath := filepath.Join(dir, logName)
	data, err := os.ReadFile(logPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("service: reading log: %w", err)
	}
	recs, valid := decodeLog(data)
	fs.apply(recs)
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: opening log: %w", err)
	}
	if int64(valid) < int64(len(data)) {
		obsStoreTruncations.Inc()
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, fmt.Errorf("service: truncating corrupt log tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("service: seeking log: %w", err)
	}
	fs.log = f
	fs.logBytes = int64(valid)
	return fs, nil
}

// apply folds decoded records into the mirror, idempotently: a job
// record never replaces a terminal record already loaded (a job sealed
// just before a crash is still live in the old manifest), replayed
// events are skipped by sequence number, evictions of unknown jobs are
// ignored.
func (fs *FileStore) apply(recs []logRec) {
	for _, r := range recs {
		switch r.Kind {
		case "job":
			if r.Job == nil || r.Job.ID == "" {
				continue
			}
			if old := fs.recs[r.Job.ID]; old != nil && old.State().Terminal() {
				continue
			}
			rec := *r.Job
			rec.Events = append([]Event(nil), r.Job.Events...)
			fs.recs[rec.ID] = &rec
		case "submit":
			if r.ID == "" {
				continue
			}
			if _, ok := fs.recs[r.ID]; ok {
				continue
			}
			rec := &JobRecord{ID: r.ID, Seq: r.Seq}
			if r.Spec != nil {
				rec.Spec = *r.Spec
			}
			fs.recs[r.ID] = rec
		case "event":
			rec := fs.recs[r.ID]
			if rec == nil || r.Event == nil {
				continue
			}
			if r.Event.Seq == len(rec.Events)+1 {
				rec.Events = append(rec.Events, *r.Event)
			}
		case "cp":
			if rec := fs.recs[r.ID]; rec != nil {
				rec.Checkpoint = r.Checkpoint
			}
		case "evict":
			fs.dropLocked(r.ID)
		case "end":
			// Commit marker; readCommitted checks and strips it.
		}
	}
}

// dropLocked removes an evicted job from the mirror. A sealed job's ID
// stays a tombstone of its segment until the segment file is deleted.
func (fs *FileStore) dropLocked(id string) {
	delete(fs.recs, id)
	if s, ok := fs.sealed[id]; ok {
		delete(fs.sealed, id)
		seg := fs.segs[s.seg]
		seg.dead = append(seg.dead, id)
	}
}

// appendLocked frames and writes records to the log in one write call.
func (fs *FileStore) appendLocked(recs ...logRec) error {
	var buf []byte
	for _, r := range recs {
		payload, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("service: encoding log record: %w", err)
		}
		buf = encodeRec(buf, payload)
	}
	n, err := fs.log.Write(buf)
	fs.logBytes += int64(n)
	if err != nil {
		obsStoreErrors.Inc()
		return fmt.Errorf("service: appending to job log: %w", err)
	}
	return nil
}

// Add admits a fresh job: catalog insert plus a durable submit record
// and the job's already-seeded events.
func (fs *FileStore) Add(j *job) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, known := fs.recs[j.id]
	if _, sealed := fs.sealed[j.id]; known || sealed {
		fs.mem.Adopt(j)
		return nil
	}
	rec := &JobRecord{ID: j.id, Seq: j.seq, Spec: j.wire, Events: append([]Event(nil), j.events...)}
	recs := []logRec{{Kind: "submit", ID: j.id, Seq: j.seq, Spec: &j.wire}}
	for i := range rec.Events {
		recs = append(recs, logRec{Kind: "event", ID: j.id, Event: &rec.Events[i]})
	}
	if err := fs.appendLocked(recs...); err != nil {
		return err
	}
	fs.recs[j.id] = rec
	fs.mem.Adopt(j)
	fs.maybeCompactLocked()
	return nil
}

// Adopt inserts a rehydrated job into the live catalog only — its
// records are already in the mirror from recovery replay.
func (fs *FileStore) Adopt(j *job) { fs.mem.Adopt(j) }

// Get looks a job up in the live catalog.
func (fs *FileStore) Get(id string) (*job, bool) { return fs.mem.Get(id) }

// All returns the live catalog in admission order.
func (fs *FileStore) All() []*job { return fs.mem.All() }

// Len returns the live catalog size.
func (fs *FileStore) Len() int { return fs.mem.Len() }

// Evict applies the shared eviction policy to the live catalog and
// makes the removals durable.
func (fs *FileStore) Evict(limit int) []string {
	victims := fs.mem.Evict(limit)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.limit = limit
	if len(victims) == 0 {
		return nil
	}
	recs := make([]logRec, len(victims))
	for i, id := range victims {
		recs[i] = logRec{Kind: "evict", ID: id}
		fs.dropLocked(id)
	}
	_ = fs.appendLocked(recs...) // catalog already updated; log error is counted
	fs.maybeCompactLocked()
	return victims
}

// RecordEvent appends one job event to the log and the mirror.
func (fs *FileStore) RecordEvent(id string, ev Event) error {
	t0 := time.Now()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	rec := fs.recs[id]
	if rec == nil {
		return fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	if err := fs.appendLocked(logRec{Kind: "event", ID: id, Event: &ev}); err != nil {
		return err
	}
	if ev.Seq == len(rec.Events)+1 {
		rec.Events = append(rec.Events, ev)
	}
	fs.maybeCompactLocked()
	obsStoreAppend.Since(t0)
	return nil
}

// RecordCheckpoint persists a job's latest checkpoint; the log carries
// every write, the mirror (and thus the next manifest) only the last.
func (fs *FileStore) RecordCheckpoint(id string, cp *session.Checkpoint) error {
	t0 := time.Now()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	rec := fs.recs[id]
	if rec == nil {
		return fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	if err := fs.appendLocked(logRec{Kind: "cp", ID: id, Checkpoint: cp}); err != nil {
		return err
	}
	rec.Checkpoint = cp
	fs.maybeCompactLocked()
	obsCheckpointWrites.Inc()
	obsCheckpointWrite.Since(t0)
	return nil
}

// Recover returns the durable records in admission order. Unsealed
// records' event slices are copied: the caller rehydrates jobs from
// them while RecordEvent keeps appending to the mirror. Sealed jobs'
// decoded records are handed over, leaving only their index entries,
// so a later call reads them back from their segments.
func (fs *FileStore) Recover() ([]JobRecord, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]JobRecord, 0, len(fs.recs)+len(fs.sealed))
	reread := make(map[int][]string) // segment → its sealed jobs not in recs
	for id, s := range fs.sealed {
		if _, ok := fs.recs[id]; !ok {
			reread[s.seg] = append(reread[s.seg], id)
		}
	}
	for id, rec := range fs.recs {
		r := *rec
		if _, ok := fs.sealed[id]; ok {
			delete(fs.recs, id)
		} else {
			r.Events = append([]Event(nil), rec.Events...)
		}
		out = append(out, r)
	}
	for n, ids := range reread {
		recs, err := readCommitted(filepath.Join(fs.dir, segmentName(n)))
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			if r.Job != nil && slices.Contains(ids, r.Job.ID) {
				out = append(out, *r.Job)
			}
		}
	}
	slices.SortFunc(out, func(a, b JobRecord) int { return a.Seq - b.Seq })
	return out, nil
}

// Close compacts once more (so a clean shutdown restarts with an empty
// log) and closes the log.
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil
	}
	fs.closed = true
	err := fs.compactLocked()
	if cerr := fs.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// maybeCompactLocked compacts when the live log outgrew the threshold.
func (fs *FileStore) maybeCompactLocked() {
	if fs.logBytes > fs.opts.CompactBytes {
		if err := fs.compactLocked(); err != nil {
			obsStoreErrors.Inc()
		}
	}
}

// compactLocked runs the five compaction steps of the header comment:
// evict, seal the newly terminal jobs into a new segment, delete dead
// segments, write the manifest, truncate the log.
func (fs *FileStore) compactLocked() error {
	seq := func(id string) int {
		if s, ok := fs.sealed[id]; ok {
			return s.seq
		}
		return fs.recs[id].Seq
	}
	ordered := make([]storeEntry, 0, len(fs.recs)+len(fs.sealed))
	for id := range fs.sealed {
		ordered = append(ordered, storeEntry{id: id, terminal: true})
	}
	for id, rec := range fs.recs {
		if _, ok := fs.sealed[id]; !ok {
			ordered = append(ordered, storeEntry{id: id, terminal: rec.State().Terminal()})
		}
	}
	slices.SortFunc(ordered, func(a, b storeEntry) int { return seq(a.id) - seq(b.id) })
	for _, id := range evictVictims(ordered, fs.limit) {
		fs.dropLocked(id)
	}

	var fresh, live []logRec
	for _, e := range ordered {
		rec, ok := fs.recs[e.id]
		if _, sealed := fs.sealed[e.id]; !ok || sealed {
			continue // evicted just above, or sealed earlier
		}
		if e.terminal {
			fresh = append(fresh, logRec{Kind: "job", Job: rec})
		} else {
			live = append(live, logRec{Kind: "job", Job: rec})
		}
	}
	if len(fresh) > 0 {
		n := fs.lastSeg + 1
		if err := fs.commitFile(segmentName(n), fresh); err != nil {
			return err
		}
		fs.lastSeg = n
		fs.segs[n] = &segment{jobs: len(fresh)}
		for _, r := range fresh {
			fs.sealed[r.Job.ID] = sealedJob{seq: r.Job.Seq, seg: n}
			delete(fs.recs, r.Job.ID)
		}
	}

	var tombs []logRec
	for _, n := range slices.Sorted(maps.Keys(fs.segs)) {
		seg := fs.segs[n]
		if len(seg.dead) == seg.jobs {
			if err := os.Remove(filepath.Join(fs.dir, segmentName(n))); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("service: deleting dead segment: %w", err)
			}
			delete(fs.segs, n)
			continue
		}
		for _, id := range seg.dead {
			tombs = append(tombs, logRec{Kind: "evict", ID: id})
		}
	}

	if err := fs.commitFile(snapshotName, append(tombs, live...)); err != nil {
		return err
	}
	if err := fs.log.Truncate(0); err != nil {
		return fmt.Errorf("service: resetting log: %w", err)
	}
	if _, err := fs.log.Seek(0, 0); err != nil {
		return err
	}
	fs.logBytes = 0
	obsStoreCompactions.Inc()
	return nil
}

// commitFile writes recs and an end marker counting them to name
// through a temp file, streamed by a bufio.Writer: flush, fsync, close,
// rename. A crash leaves the old file (or none) whole, plus a temp file
// that OpenFileStore removes.
func (fs *FileStore) commitFile(name string, recs []logRec) error {
	tmp := filepath.Join(fs.dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("service: creating %s: %w", name, err)
	}
	err = writeRecs(f, recs)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(fs.dir, name))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("service: committing %s: %w", name, err)
	}
	return nil
}

// writeRecs streams recs and their end marker to f and fsyncs it.
func writeRecs(f *os.File, recs []logRec) error {
	w := bufio.NewWriterSize(f, 64<<10)
	var line []byte
	for _, r := range append(recs[:len(recs):len(recs)], logRec{Kind: "end", Count: len(recs)}) {
		payload, err := json.Marshal(r)
		if err != nil {
			return err
		}
		line = encodeRec(line[:0], payload)
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Sync()
}
