// Command histwalkd is the sampling-job daemon: a long-lived HTTP
// service that accepts serialized sampling-run specs, executes them
// concurrently on the trial-execution engine, streams per-chain
// progress (budget spend, running estimates, Gelman–Rubin R̂) over
// Server-Sent Events, and serves finished Results — each bit-identical
// to a direct histwalk.Run of the same spec.
//
// Usage:
//
//	histwalkd [-addr 127.0.0.1:8080] [-max-concurrent N]
//	          [-queue N] [-store N] [-store-dir DIR] [-drain 30s]
//	          [-pprof] [-trace spans.jsonl]
//
// API (JSON; see internal/service for the full contract):
//
//	POST   /v1/jobs             submit a spec        → 202 job status
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        status + result
//	GET    /v1/jobs/{id}/events SSE progress stream
//	DELETE /v1/jobs/{id}        cancel
//	GET    /metrics             Prometheus text exposition
//	GET    /healthz             liveness + build info
//	GET    /debug/pprof/        runtime profiles (with -pprof only)
//
// -trace streams JSONL lifecycle spans (job queued/running/terminal,
// chain start/milestone/finish, pipeline fetch begin/end) to a file;
// -pprof mounts net/http/pprof under /debug/pprof/. Neither affects
// any job's Result — instrumentation consumes no RNG and trajectories
// stay bit-identical.
//
// Example:
//
//	curl -s localhost:8080/v1/jobs -d \
//	  '{"dataset":"gplus","walker":"cnrw","budget":1000,"chains":8,"seed":1}'
//
// With -store-dir the daemon is durable: every job's spec, event log
// and periodic chain checkpoints are persisted to an append-only
// CRC-framed log in that directory (compacted as it grows: each
// finished job is written once, to an immutable segment, with its
// status summary). On restart — clean or after a kill -9 — terminal
// jobs reload as queryable history from their summaries alone (a
// replay of their events reads them from the segment), queued jobs
// re-enter the queue in admission order, and running jobs
// resume from their last checkpoint to the bit-identical Result an
// uninterrupted run would have produced. SSE clients reconnect with
// Last-Event-ID and miss nothing.
//
// On SIGINT/SIGTERM the daemon drains gracefully: intake closes,
// running jobs finish (within -drain), queued jobs are cancelled, and
// event subscribers receive their terminal events before the listener
// stops.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"histwalk"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "histwalkd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and serves until ctx is cancelled, then drains.
// It is the whole daemon behind a testable seam: the e2e test drives it
// on a random port and shuts it down by cancelling ctx.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("histwalkd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use port 0 for a random port)")
	maxConcurrent := fs.Int("max-concurrent", 0, "jobs running at once (0 = one per core)")
	queueDepth := fs.Int("queue", 0, "admission queue depth (0 = 256)")
	storeLimit := fs.Int("store", 0, "jobs kept in memory before terminal ones are evicted (0 = 1024)")
	storeDir := fs.String("store-dir", "", "durable job-store directory (empty = in-memory only)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-drain budget on shutdown")
	pprofOn := fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	traceFile := fs.String("trace", "", "write JSONL lifecycle trace spans to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return fmt.Errorf("opening -trace file: %w", err)
		}
		tr := histwalk.NewTracer(f)
		histwalk.SetTracer(tr)
		defer func() {
			histwalk.SetTracer(nil)
			tr.Close()
		}()
	}

	opts := histwalk.ManagerOptions{
		MaxConcurrent: *maxConcurrent,
		QueueDepth:    *queueDepth,
		StoreLimit:    *storeLimit,
	}
	if *storeDir != "" {
		store, err := histwalk.OpenFileJobStore(*storeDir, histwalk.FileStoreOptions{})
		if err != nil {
			return err
		}
		opts.Store = store
	}
	mgr, rec, err := histwalk.OpenManager(opts)
	if err != nil {
		return err
	}
	if *storeDir != "" {
		fmt.Fprintf(out, "histwalkd recovered %d jobs from %s (requeued %d, resumed %d, restarted %d, failed %d) in %v\n",
			rec.Terminal+rec.Requeued+rec.Resumed+rec.Restarted+rec.Failed, *storeDir,
			rec.Requeued, rec.Resumed, rec.Restarted, rec.Failed, rec.Elapsed)
	}
	handler := histwalk.NewServiceHandler(mgr)
	if *pprofOn {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	srv := &http.Server{Handler: handler}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "histwalkd listening on http://%s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(out, "histwalkd draining (budget %v)\n", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain the manager first: running jobs finish, queued jobs are
	// cancelled, and every event subscriber observes a terminal event —
	// which is what lets the HTTP shutdown below complete without
	// killing live SSE streams mid-job.
	drainErr := mgr.Shutdown(dctx)
	if err := srv.Shutdown(dctx); err != nil {
		srv.Close()
	}
	if drainErr != nil {
		return fmt.Errorf("forced shutdown after drain budget: %w", drainErr)
	}
	fmt.Fprintln(out, "histwalkd stopped")
	return nil
}
