package main

// The svc workload: the real histwalkd binary over a durable -store-dir
// that starts every run at its steady-state size — a catalog of 1024
// terminal jobs, the daemon's default -store limit — driven by two
// closed-loop clients that each POST a job, stream its SSE events to
// the terminal result, then submit the next.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"histwalk"
)

const (
	svcCatalogJobs  = 1024 // the daemon's default -store limit
	svcClients      = 2
	svcWarmupPerCli = 4 // untimed ops per client: two full 3:1 mix cycles
	svcBoots        = 3 // boots per run; setup_s is their median
	svcGraphFile    = "gplus.hwg"
	svcCatalogDir   = "catalog" // the populated store every boot copies
	svcStoreDir     = "store"   // the copy a daemon boots on
	// svcCatalogBudget is the catalog jobs' budget: at the service's 64
	// progress ticks per chain it gives every chain exactly the 66
	// progress events the live jobs' budgets (200, 1000) give, so
	// catalog and live jobs have the same event and checkpoint counts
	// at a fraction of the population time.
	svcCatalogBudget = 66
	// svcCompactBytes holds compaction off while the catalog is
	// populated; at the default 4 MiB every compaction would rewrite
	// the growing catalog.
	svcCompactBytes = 1 << 40
	// svcRate is the nominal op rate on the reference host (2 x86
	// cores); ops per run are seconds × svcRate.
	svcRate = 12.0
	// The Manager's default schedule, which the replica of its drive
	// loop follows: a merge every budget/64 of spend per chain, a
	// checkpoint every 4th merge.
	svcProgressTicks   = 64
	svcCheckpointEvery = 4
	svcReplicaJobs     = 24 // the first 24 measured jobs: 18 quick, 6 README-shaped
)

var (
	svcQuickWalkers  = []string{"srw", "cnrw", "gnrw-degree", "nbcnrw"}
	svcReadmeWalkers = []string{"cnrw", "gnrw-degree"}
)

// svcOp is one job of the mix.
type svcOp struct {
	wire   histwalk.SpecJSON
	readme bool
}

// svcOps returns n ops of the 3 quick : 1 README-shaped cycle, op i
// seeded from the workload seed. budget < 0 keeps the live budgets;
// otherwise every job gets that budget (the catalog).
func svcOps(seed int64, stream string, n, budget int) []svcOp {
	ops := make([]svcOp, n)
	for i := range ops {
		s := opSeed(seed, stream, i)
		if i%4 == 3 {
			b := 1000
			if budget > 0 {
				b = budget
			}
			ops[i] = svcOp{readme: true, wire: histwalk.SpecJSON{
				Dataset: svcGraphFile, Walker: svcReadmeWalkers[(i/4)%2],
				Budget: b, Chains: 8, Cache: "shared", Seed: s,
				Estimators: []histwalk.EstimatorJSON{
					{Kind: "avg-degree"},
					{Kind: "proportion", Attr: "degree", Op: ">=", Value: 100},
				},
			}}
			continue
		}
		b := 200
		if budget > 0 {
			b = budget
		}
		ops[i] = svcOp{wire: histwalk.SpecJSON{
			Dataset: svcGraphFile, Walker: svcQuickWalkers[(3*(i/4)+i%4)%4],
			Budget: b, Chains: 4, Seed: s,
			Estimators: []histwalk.EstimatorJSON{{Kind: "avg-degree"}},
		}}
	}
	return ops
}

// svcPopulate builds the steady-state catalog in dir through the public
// service API: 1024 jobs run to completion by an in-process Manager
// over a FileStore, then Shutdown compacts them into one snapshot.
func svcPopulate(ctx context.Context, dir string, seed int64) error {
	store, err := histwalk.OpenFileJobStore(dir, histwalk.FileStoreOptions{CompactBytes: svcCompactBytes})
	if err != nil {
		return err
	}
	m, _, err := histwalk.OpenManager(histwalk.ManagerOptions{Store: store})
	if err != nil {
		return err
	}
	const inflight = 64 // well under the default queue depth
	ids := make([]string, 0, svcCatalogJobs)
	wait := func(id string) error {
		for {
			_, terminal, err := m.WaitEvents(ctx, id, math.MaxInt32)
			if err != nil || terminal {
				return err
			}
		}
	}
	var runErr error
	for i, op := range svcOps(seed, "svc-catalog", svcCatalogJobs, svcCatalogBudget) {
		if i >= inflight {
			if runErr = wait(ids[i-inflight]); runErr != nil {
				break
			}
		}
		st, err := m.Submit(op.wire)
		if err != nil {
			runErr = fmt.Errorf("populating catalog: %w", err)
			break
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if runErr != nil {
			break
		}
		runErr = wait(id)
	}
	if err := m.Shutdown(ctx); runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return runErr
	}
	for _, st := range m.List() {
		if st.State != histwalk.JobDone {
			return fmt.Errorf("catalog job %s ended %s: %s", st.ID, st.State, st.Error)
		}
	}
	return nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// daemon is one running histwalkd child.
type daemon struct {
	*child
	base string
	hc   *http.Client
	sp   *spans // the client's spans; nil when untraced
}

// bootDaemon copies the catalog to a fresh store, syncs, and starts
// histwalkd on it, returning the daemon and its boot time: exec until
// it prints its listening line, store recovery included.
func bootDaemon(cfg *config, extra ...string) (*daemon, time.Duration, error) {
	if err := copyDir(svcCatalogDir, svcStoreDir); err != nil {
		return nil, 0, err
	}
	// Flush the copy so no boot pays for another's writeback.
	syscall.Sync()
	args := append([]string{"-addr", "127.0.0.1:0", "-store-dir", svcStoreDir}, extra...)
	cmd := exec.Command(filepath.Join(cfg.root, ".bench_build", "bin", "histwalkd"), args...)
	c, line, took, err := startChild(cmd, "histwalkd listening on ", 120*time.Second)
	if err != nil {
		return nil, 0, err
	}
	base := strings.TrimSpace(line[strings.Index(line, "http://"):])
	return &daemon{
		child: c,
		base:  base,
		hc:    &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * svcClients}},
	}, took, nil
}

// svcOutcome is one op as the client saw it.
type svcOutcome struct {
	err        error
	id         string
	start      time.Time
	latency    time.Duration // POST sent → terminal event read
	submit     time.Duration // POST round trip
	firstEvent time.Duration // POST sent → first progress event
	events     int
	sseBytes   int
	result     []byte // the result event's raw "result" JSON
}

// sseEvent is the part of a service event the client checks.
type sseEvent struct {
	State  string                      `json:"state"`
	Error  string                      `json:"error"`
	Chain  *struct{ Chain, Spent int } `json:"chain"`
	Result json.RawMessage             `json:"result"`
}

// do runs one job: POST, then its SSE stream to the terminal event. It
// checks that the job ends done with every chain's spend at its budget.
func (d *daemon) do(ctx context.Context, op svcOp) (o svcOutcome) {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	body, err := json.Marshal(op.wire)
	if err != nil {
		o.err = err
		return o
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	o.start = t0
	resp, err := d.hc.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	var st struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	o.submit = time.Since(t0)
	if resp.StatusCode != http.StatusAccepted || err != nil {
		o.err = fmt.Errorf("submit: %s %s %v", resp.Status, st.Error, err)
		return o
	}
	o.id = st.ID

	if req, err = http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/jobs/"+st.ID+"/events", nil); err == nil {
		resp, err = d.hc.Do(req)
	}
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("events: %s", resp.Status)
		return o
	}
	chains := op.wire.Chains
	done := make([]bool, chains)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var typ string
	terminal := false
	for sc.Scan() {
		line := sc.Bytes()
		o.sseBytes += len(line) + 1
		if t, ok := bytes.CutPrefix(line, []byte("event: ")); ok {
			typ = string(t)
			continue
		}
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			continue
		}
		o.events++
		if typ == "progress" {
			if o.firstEvent == 0 {
				o.firstEvent = time.Since(t0)
			}
			// Only a chain's final snapshot is checked; the rest are
			// counted without decoding, to keep the client's CPU small.
			if !bytes.Contains(data, []byte(`"done":true`)) {
				continue
			}
		}
		var ev sseEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			o.err = fmt.Errorf("job %s: decoding %s event: %w", st.ID, typ, err)
			return o
		}
		switch typ {
		case "progress":
			if ev.Chain == nil || ev.Chain.Chain < 0 || ev.Chain.Chain >= chains {
				o.err = fmt.Errorf("job %s: progress event for an unknown chain", st.ID)
				return o
			}
			if ev.Chain.Spent != op.wire.Budget {
				o.err = fmt.Errorf("job %s: chain %d finished at spend %d, budget %d", st.ID, ev.Chain.Chain, ev.Chain.Spent, op.wire.Budget)
				return o
			}
			done[ev.Chain.Chain] = true
		case "result":
			o.latency = time.Since(t0)
			o.result = append([]byte(nil), ev.Result...)
			terminal = true
			if ev.State != string(histwalk.JobDone) {
				o.err = fmt.Errorf("job %s: result event in state %s", st.ID, ev.State)
			}
		case "state":
			if ev.State != string(histwalk.JobQueued) && ev.State != string(histwalk.JobRunning) {
				o.err = fmt.Errorf("job %s ended %s: %s", st.ID, ev.State, ev.Error)
				return o
			}
		}
	}
	if err := sc.Err(); err != nil && o.err == nil {
		o.err = fmt.Errorf("job %s: reading events: %w", st.ID, err)
	}
	if o.err == nil && !terminal {
		o.err = fmt.Errorf("job %s: event stream ended without a result", st.ID)
	}
	for c, ok := range done {
		if o.err == nil && !ok {
			o.err = fmt.Errorf("job %s: chain %d never reported done", st.ID, c)
		}
	}
	return o
}

// runClients runs ops on n closed-loop clients, each taking the next op
// when its previous one completes, and counts them into blk when set.
func (d *daemon) runClients(ctx context.Context, ops []svcOp, n int, blk *blocks) []svcOutcome {
	out := make([]svcOutcome, len(ops))
	closedLoop(0, len(ops), n, func(i int) {
		out[i] = d.do(ctx, ops[i])
		if blk != nil {
			blk.opDone()
		}
		d.record(i, ops[i], out[i])
	})
	return out
}

// record adds one op's client-side spans: the op, its POST, and the
// wait for its first progress event.
func (d *daemon) record(i int, op svcOp, o svcOutcome) {
	if d.sp == nil || o.err != nil {
		return
	}
	id := d.sp.id()
	d.sp.add(id, "svc.op", 0, o.start, o.start.Add(o.latency), map[string]any{
		"op": i, "job": o.id, "readme": op.readme, "events": o.events, "sse_bytes": o.sseBytes,
	})
	d.sp.add(0, "svc.submit", id, o.start, o.start.Add(o.submit), nil)
	d.sp.add(0, "svc.first_event", id, o.start, o.start.Add(o.firstEvent), nil)
}

// svcPass is one boot-and-load pass over the daemon.
type svcPass struct {
	boot        time.Duration
	outcomes    []svcOutcome // measured ops only
	elapsed     time.Duration
	blk         *blocks
	peakRSS     float64
	writeBytes  float64
	before      *promSnapshot // at the start of the measured ops
	after       *promSnapshot // at their end
	snapshotMiB float64       // the store's snapshot after a clean stop
}

// svcRun boots the daemon on a fresh catalog copy and drives the op
// list through it: warm-up ops untimed, the rest measured.
func svcRun(ctx context.Context, cfg *config, r *report, ops []svcOp, warm int, sp *spans, extra ...string) (*svcPass, error) {
	d, boot, err := bootDaemon(cfg, extra...)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	p := &svcPass{boot: boot}
	for i, o := range d.runClients(ctx, ops[:warm], svcClients, nil) {
		if o.err != nil {
			r.fail("warm-up op %d: %v", i, o.err)
		}
	}
	if p.before, err = scrapeProm(d.hc, d.base+"/metrics"); err != nil {
		return nil, err
	}
	if _, err := procCPU(d.pid()); err != nil {
		return nil, err
	}
	cpu := func() time.Duration {
		c, _ := procCPU(d.pid()) // readable while the daemon lives, checked above
		return c
	}
	wb0, _ := procWriteBytes(d.pid())
	d.sp = sp
	t0 := time.Now()
	p.blk = newBlocks(len(ops)-warm, cpu)
	p.outcomes = d.runClients(ctx, ops[warm:], svcClients, p.blk)
	p.elapsed = time.Since(t0)
	for _, o := range p.outcomes {
		r.opDone(o.err)
	}
	wb1, _ := procWriteBytes(d.pid())
	p.writeBytes = wb1 - wb0
	if p.after, err = scrapeProm(d.hc, d.base+"/metrics"); err != nil {
		return nil, err
	}
	if p.peakRSS, err = peakRSSMB(fmt.Sprint(d.pid())); err != nil {
		return nil, err
	}
	if !d.stop(60 * time.Second) {
		r.fail("histwalkd did not drain and exit cleanly: %s", d.output())
	}
	if fi, err := os.Stat(filepath.Join(svcStoreDir, "snapshot.jsonl")); err == nil {
		p.snapshotMiB = float64(fi.Size()) / (1 << 20)
	}
	return p, nil
}

// opsPerS is the closed-loop throughput of a pass.
func (p *svcPass) opsPerS() float64 { return float64(len(p.outcomes)) / p.elapsed.Seconds() }

// resultSummary is the part of a Result the workload aggregates.
type resultSummary struct {
	TotalSteps        int     `json:"total_steps"`
	TotalQueries      int     `json:"total_queries"`
	GlobalQueries     int     `json:"global_queries"`
	CrossChainHitRate float64 `json:"cross_chain_hit_rate"`
}

func runSvc(ctx context.Context, cfg *config, r *report) error {
	if err := os.Chdir(cfg.work); err != nil {
		return err
	}
	// Fixtures, outside every timer: the graph file, then the catalog.
	t0 := time.Now()
	g := histwalk.GooglePlusN(gplusNodes, gplusSeed)
	buildS := time.Since(t0).Seconds()
	if err := histwalk.WriteGraphStore(svcGraphFile, g); err != nil {
		return err
	}
	g = nil
	if err := svcPopulate(ctx, svcCatalogDir, cfg.seed); err != nil {
		return err
	}
	if _, err := os.ReadFile(svcGraphFile); err != nil { // into the page cache
		return err
	}
	freeMemory()

	warm := svcClients * svcWarmupPerCli
	n := cfg.ops(svcRate)
	ops := svcOps(cfg.seed, "svc", warm+n, -1)

	var pass *svcPass
	if !cfg.trace {
		// Extra boots for setup_s, each on its own fresh copy and killed
		// once listening; the last boot carries the load.
		var boots []float64
		for range svcBoots - 1 {
			d, took, err := bootDaemon(cfg)
			if err != nil {
				return err
			}
			d.kill()
			boots = append(boots, took.Seconds())
		}
		var err error
		if pass, err = svcRun(ctx, cfg, r, ops, warm, nil); err != nil {
			return err
		}
		boots = append(boots, pass.boot.Seconds())
		svcEndToEnd(r, boots, pass)
	} else {
		plain, err := svcRun(ctx, cfg, r, ops, warm, nil)
		if err != nil {
			return err
		}
		sp := newSpans()
		if pass, err = svcRun(ctx, cfg, r, ops, warm, sp, "-trace", "daemon-trace.jsonl"); err != nil {
			return err
		}
		if err := sp.write(cfg.spansPath("svc")); err != nil {
			return err
		}
		r.set("trace.overhead_pct", (plain.opsPerS()/pass.opsPerS()-1)*100, "%", len(pass.outcomes))
		r.set("dataset.build_s", buildS, "s", 1)
		if err := svcLayers(ctx, r, ops[warm:], pass); err != nil {
			return err
		}
		for i, o := range plain.outcomes {
			if o.err == nil && pass.outcomes[i].err == nil && !bytes.Equal(o.result, pass.outcomes[i].result) {
				r.fail("op %d: traced and untraced daemons returned different results", warm+i)
			}
		}
	}

	// Output checks after the timed window: a seeded sample of results
	// must byte-equal a direct Run of the same spec.
	rng := rand.New(rand.NewSource(cfg.seed))
	for _, i := range rng.Perm(n)[:min(n, 8)] {
		o := pass.outcomes[i]
		if o.err != nil {
			continue
		}
		if _, err := svcDirect(ctx, ops[warm+i].wire, o.result, 0); err != nil {
			r.fail("op %d (%s): %v", warm+i, o.id, err)
		}
	}
	return nil
}

// svcEndToEnd records the end-to-end metrics of a measured pass.
func svcEndToEnd(r *report, boots []float64, p *svcPass) {
	lat := make([]float64, len(p.outcomes))
	var sum resultSummary
	for i, o := range p.outcomes {
		lat[i] = math.Inf(1) // a failed op misses every latency limit
		if o.err != nil {
			continue
		}
		lat[i] = ms(o.latency)
		var s resultSummary
		if err := json.Unmarshal(o.result, &s); err != nil {
			r.fail("op %s: decoding result: %v", o.id, err)
			continue
		}
		sum.TotalQueries += s.TotalQueries
		sum.GlobalQueries += s.GlobalQueries
	}
	r.setEndToEnd(boots, p.blk, lat, p.peakRSS, div(float64(sum.GlobalQueries), float64(sum.TotalQueries)))
}

// svcDirect runs wire directly through the library with the given
// Workers and compares the Result's JSON with the bytes the daemon
// streamed, returning the run's wall time.
func svcDirect(ctx context.Context, wire histwalk.SpecJSON, got []byte, workers int) (time.Duration, error) {
	spec, err := wire.Spec()
	if err != nil {
		return 0, err
	}
	spec.Workers = workers
	t0 := time.Now()
	res, err := histwalk.Run(ctx, spec)
	took := time.Since(t0)
	if err != nil {
		return 0, err
	}
	want, err := json.Marshal(res)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(got, want) {
		return took, errors.New("daemon result differs from a direct Run of the same spec")
	}
	return took, nil
}

// svcLayers records the per-layer metrics of the traced pass.
func svcLayers(ctx context.Context, r *report, ops []svcOp, p *svcPass) error {
	n := len(p.outcomes)
	fn := float64(n)
	var submit, first []float64
	var events, sse, steps int
	var xchain []float64
	for i, o := range p.outcomes {
		if o.err != nil {
			continue
		}
		submit = append(submit, ms(o.submit))
		first = append(first, ms(o.firstEvent))
		events += o.events
		sse += o.sseBytes
		var s resultSummary
		if err := json.Unmarshal(o.result, &s); err != nil {
			r.fail("op %s: decoding result: %v", o.id, err)
			continue
		}
		steps += s.TotalSteps
		if ops[i].readme {
			xchain = append(xchain, 100*s.CrossChainHitRate)
		}
	}
	r.set("service.submit_ms", median(submit), "ms", len(submit))
	r.set("service.first_event_ms", median(first), "ms", len(first))
	r.set("service.events_per_job", float64(events)/fn, "count", n)
	r.set("service.sse_kb_per_job", float64(sse)/1024/fn, "KB", n)
	r.set("core.steps_per_s", float64(steps)/p.elapsed.Seconds(), "1/s", n)
	r.set("core.steps_per_op", float64(steps)/fn, "count", n)
	r.set("access.xchain_hit_pct", mean(xchain), "%", len(xchain))

	a, b := p.after, p.before
	qc, qs := a.histDelta(b, "histwalk_job_queue_wait_seconds")
	r.set("service.queue_wait_ms", 1000*div(qs, qc), "ms", int(qc))
	rc, rs := a.histDelta(b, "histwalk_job_run_seconds")
	runMs := 1000 * div(rs, rc)
	r.set("service.run_ms", runMs, "ms", int(rc))
	_, as := a.histDelta(b, "histwalk_store_append_seconds")
	appendMs := 1000 * as / fn
	r.set("store.append_ms", appendMs, "ms", n)
	r.set("store.append_max_ms", 1000*a.histMaxBucket(b, "histwalk_store_append_seconds"), "ms", n)
	_, cs := a.histDelta(b, "histwalk_checkpoint_write_seconds")
	cpMs := 1000 * cs / fn
	r.set("store.checkpoint_ms", cpMs, "ms", n)
	r.set("store.compactions", a.delta(b, "histwalk_store_compactions_total"), "count", n)
	r.set("store.write_mb_per_job", p.writeBytes/(1<<20)/fn, "MB", n)
	r.set("store.recovery_s", b.samples["histwalk_recovery_seconds_sum"], "s", 1)
	r.set("store.snapshot_mb", p.snapshotMiB, "MB", 1)
	r.set("runtime.gc_per_op", a.delta(b, "histwalk_runtime_gc_total")/fn, "count", n)
	r.set("runtime.gc_pause_ms_per_op", 1000*a.delta(b, "histwalk_runtime_gc_pause_seconds_total")/fn, "ms", n)

	// Per-job run time from the daemon's own job spans.
	runs, err := jobSpans("daemon-trace.jsonl")
	if err != nil {
		return err
	}
	var perJob []float64
	for _, o := range p.outcomes {
		if d, ok := runs[o.id]; ok {
			perJob = append(perJob, ms(d))
		}
	}
	if len(perJob) != n {
		r.fail("daemon trace has job spans for %d of %d jobs", len(perJob), n)
	}
	r.set("service.run_p50_ms", percentile(perJob, 0.5), "ms", len(perJob))
	r.set("service.run_p90_ms", percentile(perJob, 0.9), "ms", len(perJob))

	// The walk alone: a Workers-1 Run of every job's spec, whose Result
	// must also match what the daemon streamed.
	var walk []float64
	for i, o := range p.outcomes {
		if o.err != nil {
			continue
		}
		took, err := svcDirect(ctx, ops[i].wire, o.result, 1)
		if err != nil {
			r.fail("op %s: %v", o.id, err)
			continue
		}
		walk = append(walk, ms(took))
	}
	walkMs := mean(walk)
	r.set("session.walk_ms", walkMs, "ms", len(walk))

	// Merges and checkpoints on a replica of the Manager's drive loop,
	// over a 3:1 sample of the jobs. A change inside the service's own
	// drive loop moves service.* but not these.
	fmt.Println("session.result_ms and session.checkpoint_ms come from a replica of the Manager's drive loop (merge every budget/64 of spend per chain, checkpoint every 4th merge), not from the daemon")
	var specs []histwalk.Spec
	for _, op := range ops[:min(len(ops), svcReplicaJobs)] {
		spec, err := op.wire.Spec()
		if err != nil {
			return err
		}
		specs = append(specs, spec)
	}
	resultMs, checkpointMs := setReplica(ctx, r, specs, svcProgressTicks, svcCheckpointEvery)
	r.set("service.unattributed_ms", runMs-walkMs-resultMs-checkpointMs-appendMs-cpMs, "ms", n)
	return nil
}

// jobSpans returns each job's running → terminal duration from a
// daemon -trace file.
func jobSpans(path string) (map[string]time.Duration, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	start := map[string]time.Time{}
	out := map[string]time.Duration{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.Contains(line, []byte(`"ev":"job.`)) {
			continue
		}
		var sp struct {
			TS  time.Time `json:"ts"`
			Ev  string    `json:"ev"`
			Job string    `json:"job"`
		}
		if err := json.Unmarshal(line, &sp); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		switch sp.Ev {
		case "job.running":
			start[sp.Job] = sp.TS
		case "job.done", "job.failed", "job.cancelled":
			if t, ok := start[sp.Job]; ok {
				out[sp.Job] = sp.TS.Sub(t)
			}
		}
	}
	return out, sc.Err()
}
