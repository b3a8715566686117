package service

// FileStore: the durable JobStore, laid out like a log-structured file
// system (LFS, Rosenblum & Ousterhout 1992). Files in the store
// directory, and the record kinds each holds:
//
//	events.log            submit, event, cp, evict: every change since
//	                      the last compaction, appended
//	segment-NNNNNN.jsonl  per job one compaction found newly terminal,
//	                      its sum record then its job record; then end;
//	                      never rewritten
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
// Sealing folds each job's events once (summary.apply, job.go) into its
// sum record: ID, Seq, Spec and the summary — state, error, per-chain
// progress, event count, Result, pipeline counters. The job record
// beside it holds the events. The mirror then keeps an index entry per
// sealed job: its segment and the byte span of its job record. A
// terminal job hands its events to the store (HandOff), so a sealed job
// costs the Manager its summary alone; Events serves a replay with one
// read of the job record.
//
// Recovery removes leftover *.tmp files, then streams the segments in
// numeric order and loads the manifest and the log's longest valid
// prefix, truncating the log's corrupt tail (a torn final append). A
// segment's sum records are decoded and its job records only indexed,
// so boot decodes no sealed event. A segment sealed before sum records
// existed holds job records alone; each is decoded and folded at every
// open, until eviction deletes the segment. Two rules keep the fold
// idempotent: (a) a job record never replaces a terminal record already
// loaded, and the log's events and checkpoints of a sealed job are
// ignored; (b) an evict of an unknown job is a no-op; events are
// appended by sequence number. The manifest and segments are committed
// by rename, so a bad line in one is corruption, not a torn append:
// every line must be CRC-clean and the file must end in an end record
// whose n counts the records before it, or OpenFileStore fails naming
// the file. A segment's job records are JSON-decoded on replay, and a
// bad one fails that replay alone. A store written before segments
// existed is a manifest that still lists terminal jobs; the first
// compaction seals them.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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
	// "job" (segment and manifest: one full JobRecord), "sum" (segment:
	// a sealed job's summary, Job holding its ID, Seq and Spec; the job
	// record follows it), "end" (segment and manifest commit marker with
	// the count of records before it).
	Kind       string              `json:"k"`
	ID         string              `json:"id,omitempty"`
	Seq        int                 `json:"seq,omitempty"`
	Spec       *session.SpecJSON   `json:"spec,omitempty"`
	Event      *Event              `json:"ev,omitempty"`
	Checkpoint *session.Checkpoint `json:"cp,omitempty"`
	Job        *JobRecord          `json:"job,omitempty"`
	Sum        *summary            `json:"sum,omitempty"`
	Count      int                 `json:"n,omitempty"`
}

// encodeRec frames one payload as a CRC-checked log line.
func encodeRec(buf []byte, payload []byte) []byte {
	buf = fmt.Appendf(buf, "%08x ", crc32.Checksum(payload, storeCRC))
	buf = append(buf, payload...)
	return append(buf, '\n')
}

// lineCRC parses the framing of a line that starts with head: the
// payload's CRC, then a space.
func lineCRC(head []byte) (uint32, error) {
	if len(head) < 9 || head[8] != ' ' {
		return 0, fmt.Errorf("service: malformed log line framing")
	}
	var want uint32
	if _, err := fmt.Sscanf(string(head[:8]), "%08x", &want); err != nil {
		return 0, fmt.Errorf("service: malformed log line CRC: %w", err)
	}
	return want, nil
}

// decodeLine verifies and strips one complete line's framing (without
// the trailing newline), returning the payload.
func decodeLine(line []byte) ([]byte, error) {
	want, err := lineCRC(line)
	if err != nil {
		return nil, err
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

// lineSpan is where one line lies in a file, its newline included.
type lineSpan struct {
	off  int64
	size int
}

// jobHead opens the payload of every job record: json.Marshal writes
// logRec's fields in order, Kind first.
var jobHead = []byte(`{"k":"job"`)

// scanCommitted streams a file committed by rename — a segment or the
// manifest — and calls visit with each record before the end marker and
// the span of its line. Every line must be CRC-clean and JSON, and the
// file must end in an end record counting the records before it. With
// lazy set, a job record that follows a sum record is CRC-checked but
// not decoded: visit sees its Kind alone.
func scanCommitted(path string, lazy bool, visit func(r *logRec, at lineSpan) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64<<10)
	var (
		at       lineSpan
		n        int                       // records before the current line
		payload  = make([]byte, 0, 64<<10) // reused for every decoded line
		afterSum bool
	)
	corrupt := func(err error) error {
		return fmt.Errorf("service: %s is corrupt at byte %d: %w", path, at.off, err)
	}
	for ; ; at.off += int64(at.size) {
		rec := logRec{}
		skip := lazy && afterSum && isJobLine(br)
		payload, at.size, err = nextLine(br, payload[:0], !skip)
		switch {
		case err == io.EOF:
			return fmt.Errorf("service: %s lacks a valid end marker", path)
		case err != nil:
			return corrupt(err)
		case skip:
			rec.Kind = "job"
		default:
			if err := json.Unmarshal(payload, &rec); err != nil {
				return corrupt(err)
			}
		}
		if rec.Kind == "end" {
			if rec.Count != n {
				return fmt.Errorf("service: %s lacks a valid end marker", path)
			}
			if _, err := br.ReadByte(); err != io.EOF {
				return corrupt(errors.New("data past the end marker"))
			}
			return nil
		}
		if err := visit(&rec, at); err != nil {
			return corrupt(err)
		}
		n++
		afterSum = rec.Kind == "sum"
	}
}

// isJobLine reports whether the next line of br holds a job record.
func isJobLine(br *bufio.Reader) bool {
	head, err := br.Peek(9 + len(jobHead))
	return err == nil && bytes.Equal(head[9:], jobHead)
}

// nextLine consumes the next line of br, streaming its payload through
// the CRC check, and returns the line's length, newline included. With
// keep set it appends the payload to buf. At the end of the file it
// returns io.EOF.
func nextLine(br *bufio.Reader, buf []byte, keep bool) ([]byte, int, error) {
	head, err := br.Peek(9)
	if len(head) == 0 && err == io.EOF {
		return buf, 0, io.EOF
	}
	want, err := lineCRC(head)
	if err != nil {
		return buf, 0, err
	}
	size, _ := br.Discard(9)
	var got uint32
	for {
		frag, err := br.ReadSlice('\n')
		size += len(frag)
		if err == nil {
			frag = frag[:len(frag)-1]
		}
		got = crc32.Update(got, storeCRC, frag)
		if keep {
			buf = append(buf, frag...)
		}
		switch err {
		case nil:
			if got != want {
				return buf, size, fmt.Errorf("service: log line CRC mismatch: %08x != %08x", got, want)
			}
			return buf, size, nil
		case bufio.ErrBufferFull:
		case io.EOF:
			return buf, size, io.ErrUnexpectedEOF
		default:
			return buf, size, err
		}
	}
}

// readCommitted reads a file committed by rename — a segment or the
// manifest — and returns its records, every one decoded, without the
// end marker.
func readCommitted(path string) ([]logRec, error) {
	var recs []logRec
	err := scanCommitted(path, false, func(r *logRec, _ lineSpan) error {
		recs = append(recs, *r)
		return nil
	})
	return recs, err
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
	seq    int      // admission sequence number
	seg    int      // segment number
	at     lineSpan // its job record in the segment
	events int      // its event count
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
	// Recover it also holds the sealed jobs' records, summaries without
	// events.
	recs   map[string]*JobRecord
	sealed map[string]sealedJob
	// orphans holds the events of jobs that compaction's own eviction
	// dropped while the Manager still lists them, until Evict drops
	// them from the catalog too.
	orphans map[string][]Event
	segs    map[int]*segment
	lastSeg int  // highest segment number written or loaded
	limit   int  // last Evict limit; re-applied at compaction (0 = none yet)
	closed  bool // Close has run
}

// OpenFileStore opens (or creates) the store directory, streams the
// segments and loads the manifest and the log's valid prefix,
// truncating any corrupt log tail. A corrupt segment or manifest is an
// error. The returned store's Recover holds every job the process knew
// before it died.
func OpenFileStore(dir string, opts FileStoreOptions) (*FileStore, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: creating store dir: %w", err)
	}
	fs := &FileStore{
		mem:     NewMemStore(),
		dir:     dir,
		opts:    opts,
		recs:    make(map[string]*JobRecord),
		sealed:  make(map[string]sealedJob),
		orphans: make(map[string][]Event),
		segs:    make(map[int]*segment),
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
		seg := &segment{}
		err := fs.scanSegment(n, func(rec *JobRecord, at lineSpan) {
			if _, dup := fs.sealed[rec.ID]; dup {
				return
			}
			fs.sealed[rec.ID] = sealedJob{seq: rec.Seq, seg: n, at: at, events: rec.sum.Events}
			fs.recs[rec.ID] = rec
			seg.jobs++
		})
		if err != nil {
			return nil, err
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

// scanSegment streams segment n and calls visit with each sealed job's
// record — ID, Seq, Spec and summary, no events — and the span of its
// job record, which is indexed, not decoded. A segment sealed before
// sum records holds job records alone; each is decoded and folded here.
func (fs *FileStore) scanSegment(n int, visit func(rec *JobRecord, at lineSpan)) error {
	var pending *JobRecord // the sum record whose job record comes next
	return scanCommitted(filepath.Join(fs.dir, segmentName(n)), true, func(r *logRec, at lineSpan) error {
		switch r.Kind {
		case "sum":
			if pending != nil || r.Job == nil || r.Sum == nil {
				return errors.New("sum record out of place")
			}
			pending = r.Job
			pending.sum = r.Sum
		case "job":
			rec := pending
			if rec == nil {
				if r.Job == nil {
					return errors.New("job record without a job")
				}
				s := r.Job.summary()
				rec = &JobRecord{ID: r.Job.ID, Seq: r.Job.Seq, Spec: r.Job.Spec, sum: &s}
			}
			pending = nil
			visit(rec, at)
		}
		return nil
	})
}

// apply folds decoded records into the mirror, idempotently: a job
// record never replaces a terminal record already loaded (a job sealed
// just before a crash is still live in the old manifest), a sealed
// job's events and checkpoints are ignored, replayed events are skipped
// by sequence number, evictions of unknown jobs are ignored.
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
			if rec == nil || rec.sum != nil || r.Event == nil {
				continue
			}
			if r.Event.Seq == len(rec.Events)+1 {
				rec.Events = append(rec.Events, *r.Event)
			}
		case "cp":
			if rec := fs.recs[r.ID]; rec != nil && rec.sum == nil {
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
	delete(fs.orphans, id)
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

// HandOff reports whether the store holds all n events of the terminal
// job id: in the mirror until a compaction seals the job, then in its
// segment. The job calls it under its own mutex, so the lock order is
// job mutex, then fs.mu; compaction takes no job mutex.
func (fs *FileStore) HandOff(id string, n int) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if s, ok := fs.sealed[id]; ok {
		return s.events == n
	}
	evs, ok := fs.heldLocked(id)
	return ok && len(evs) == n
}

// heldLocked returns the events the store holds in memory for job id:
// an unsealed job's in the mirror, or an orphan's.
func (fs *FileStore) heldLocked(id string) ([]Event, bool) {
	if rec := fs.recs[id]; rec != nil && rec.sum == nil {
		return rec.Events, true
	}
	evs, ok := fs.orphans[id]
	return evs, ok
}

// Events returns a handed-off job's events past index after: a copy of
// those held in memory while the job is unsealed, else its job record,
// read from its segment in one read. A failed read counts in
// histwalk_store_errors_total; an evicted job is ErrUnknownJob.
func (fs *FileStore) Events(id string, after int) ([]Event, error) {
	fs.mu.Lock()
	if evs, ok := fs.heldLocked(id); ok {
		evs = append([]Event(nil), evs[min(after, len(evs)):]...)
		fs.mu.Unlock()
		return evs, nil
	}
	s, ok := fs.sealed[id]
	if !ok {
		fs.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	// Open under fs.mu, so no compaction deletes the segment first; an
	// open file stays readable after its unlink.
	f, err := os.Open(filepath.Join(fs.dir, segmentName(s.seg)))
	fs.mu.Unlock()
	if err == nil {
		var evs []Event
		evs, err = readJobEvents(f, id, s)
		f.Close()
		if err == nil {
			return evs[min(after, len(evs)):], nil
		}
	}
	obsStoreErrors.Inc()
	return nil, fmt.Errorf("service: reading the events of %s: %w", id, err)
}

// readJobEvents reads and decodes the job record s indexes in f, which
// must be job id's with s.events events.
func readJobEvents(f *os.File, id string, s sealedJob) ([]Event, error) {
	line := make([]byte, s.at.size)
	if _, err := f.ReadAt(line, s.at.off); err != nil {
		return nil, err
	}
	var r logRec
	if line[len(line)-1] != '\n' {
		return nil, fmt.Errorf("%s: no line ends at byte %d", f.Name(), s.at.off+int64(s.at.size))
	}
	payload, err := decodeLine(line[:len(line)-1])
	if err == nil {
		err = json.Unmarshal(payload, &r)
	}
	if err != nil {
		return nil, fmt.Errorf("%s at byte %d: %w", f.Name(), s.at.off, err)
	}
	if r.Kind != "job" || r.Job == nil || r.Job.ID != id || len(r.Job.Events) != s.events {
		return nil, fmt.Errorf("%s at byte %d: not the job record of %s", f.Name(), s.at.off, id)
	}
	return r.Job.Events, nil
}

// Recover returns the durable records in admission order. Unsealed
// records' event slices are copied: the caller rehydrates jobs from
// them while RecordEvent keeps appending to the mirror. A sealed job's
// record carries its summary and no events; the store hands it over,
// keeping only the index entry, so a later call reads the summary back
// from the segment.
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
		err := fs.scanSegment(n, func(rec *JobRecord, _ lineSpan) {
			if slices.Contains(ids, rec.ID) {
				out = append(out, *rec)
			}
		})
		if err != nil {
			return nil, err
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
		evs := fs.listedEventsLocked(id)
		fs.dropLocked(id)
		if evs != nil {
			fs.orphans[id] = evs
		}
	}

	var fresh []*JobRecord
	var live []logRec
	for _, e := range ordered {
		rec, ok := fs.recs[e.id]
		if _, sealed := fs.sealed[e.id]; !ok || sealed {
			continue // evicted just above, or sealed earlier
		}
		if e.terminal {
			fresh = append(fresh, rec)
		} else {
			live = append(live, logRec{Kind: "job", Job: rec})
		}
	}
	if len(fresh) > 0 {
		// Each job's sum record, then its job record.
		n := fs.lastSeg + 1
		recs := make([]logRec, 0, 2*len(fresh))
		for _, rec := range fresh {
			s := rec.summary()
			head := &JobRecord{ID: rec.ID, Seq: rec.Seq, Spec: rec.Spec}
			recs = append(recs, logRec{Kind: "sum", Job: head, Sum: &s}, logRec{Kind: "job", Job: rec})
		}
		spans, err := fs.commitFile(segmentName(n), recs)
		if err != nil {
			return err
		}
		fs.lastSeg = n
		fs.segs[n] = &segment{jobs: len(fresh)}
		for i, rec := range fresh {
			fs.sealed[rec.ID] = sealedJob{seq: rec.Seq, seg: n, at: spans[2*i+1], events: len(rec.Events)}
			delete(fs.recs, rec.ID)
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

	if _, err := fs.commitFile(snapshotName, append(tombs, live...)); err != nil {
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

// listedEventsLocked returns the events of a job that compaction's own
// eviction drops while the Manager still lists it (the catalog was over
// the limit when live jobs finished), so that replays keep serving them
// until the Manager's next Evict; nil for any other job.
func (fs *FileStore) listedEventsLocked(id string) []Event {
	if _, listed := fs.mem.Get(id); !listed {
		return nil
	}
	if evs, ok := fs.heldLocked(id); ok {
		return evs
	}
	s, ok := fs.sealed[id]
	if !ok {
		return nil
	}
	f, err := os.Open(filepath.Join(fs.dir, segmentName(s.seg)))
	if err == nil {
		defer f.Close()
		var evs []Event
		if evs, err = readJobEvents(f, id, s); err == nil {
			return evs
		}
	}
	obsStoreErrors.Inc()
	return nil
}

// commitFile writes recs and an end marker counting them to name
// through a temp file, streamed by a bufio.Writer: flush, fsync, close,
// rename. It returns the span of each record's line. A crash leaves the
// old file (or none) whole, plus a temp file that OpenFileStore
// removes.
func (fs *FileStore) commitFile(name string, recs []logRec) ([]lineSpan, error) {
	tmp := filepath.Join(fs.dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: creating %s: %w", name, err)
	}
	spans, err := writeRecs(f, recs)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(fs.dir, name))
	}
	if err != nil {
		os.Remove(tmp)
		return nil, fmt.Errorf("service: committing %s: %w", name, err)
	}
	return spans, nil
}

// writeRecs streams recs and their end marker to f, fsyncs it, and
// returns the span of each record's line.
func writeRecs(f *os.File, recs []logRec) ([]lineSpan, error) {
	w := bufio.NewWriterSize(f, 64<<10)
	spans := make([]lineSpan, len(recs))
	var off int64
	var line []byte
	for i, r := range append(recs[:len(recs):len(recs)], logRec{Kind: "end", Count: len(recs)}) {
		payload, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		line = encodeRec(line[:0], payload)
		if _, err := w.Write(line); err != nil {
			return nil, err
		}
		if i < len(recs) {
			spans[i] = lineSpan{off: off, size: len(line)}
		}
		off += int64(len(line))
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return spans, f.Sync()
}
