// Command perfbench is histwalk's end-to-end benchmark. It builds
// nothing itself; run it through run.sh, which builds it and histwalkd
// from the surrounding checkout:
//
//	bash perfbench/run.sh --workload svc|batch|crawl|all --seed N --seconds S --trace 0|1
//
// A run generates every input from --seed, measures a fixed number of
// ops sized to take about --seconds on the reference host, checks every
// op's output, and prints a table of its metrics followed by one JSON
// line {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are BENCHMARK.json's end_to_end list, measured with all
// tracing off; with --trace 1 they are its per_layer list, from a run
// with the daemon's -trace, the library tracer and the benchmark's own
// timers and spans on. Any failed output check makes the run exit 1.
// See README.md for the workloads and what each metric should move.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"histwalk"
)

// The Google+ stand-in svc and batch sample is one fixed graph,
// GooglePlusN(20000, 1): 819k edges. The generator's edge count swings
// from 529k to 1.05M across seeds (seeds 11-16), so a graph drawn from
// the workload seed would make runs of different seeds measure
// different amounts of work; the workload seed drives every op instead.
const (
	gplusNodes = 20000
	gplusSeed  = 1
)

// config is one invocation's settings.
type config struct {
	root    string // the checkout
	work    string // this run's working directory under .bench_build
	seed    int64
	seconds int
	trace   bool
}

// ops sizes a run: seconds × the workload's nominal op rate on the
// reference host, and at least 200 ops, so p90 has twenty samples
// beyond it.
func (c *config) ops(rate float64) int {
	return max(200, int(math.Round(float64(c.seconds)*rate)))
}

// opSeed derives op i's seed from the workload seed: distinct per op
// and per stream.
func opSeed(seed int64, stream string, i int) int64 {
	return histwalk.TrialSeed(seed, histwalk.StreamID("perfbench", stream), i)
}

// spansPath is where a traced run writes the benchmark's own spans.
func (c *config) spansPath(workload string) string {
	return filepath.Join(c.root, ".bench_build", "perfbench-spans-"+workload+".jsonl")
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// freeMemory returns set-up garbage to the OS before measuring.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

var workloads = map[string]func(context.Context, *config, *report) error{
	"svc":   runSvc,
	"batch": runBatch,
	"crawl": runCrawl,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve-api" {
		if err := serveAPI(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench serve-api:", err)
			os.Exit(1)
		}
		return
	}
	root := flag.String("root", "", "the histwalk checkout (set by run.sh)")
	workload := flag.String("workload", "", "svc, batch, crawl or all")
	seed := flag.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Int("seconds", 10, "run length: ops per run are seconds × the workload's nominal rate")
	trace := flag.Int("trace", 0, "1 = the traced run, printing per-layer metrics")
	flag.Parse()
	cfg := &config{root: *root, seed: *seed, seconds: *seconds, trace: *trace == 1}
	if err := run(cfg, *workload); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg *config, workload string) error {
	if cfg.root == "" || cfg.seconds < 1 {
		return fmt.Errorf("need -root and -seconds >= 1 (run through run.sh)")
	}
	bench, err := loadBenchDef(cfg.root)
	if err != nil {
		return err
	}
	if workload == "all" {
		return runAll(cfg)
	}
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (svc, batch, crawl or all)", workload)
	}
	cfg.work, err = os.MkdirTemp(filepath.Join(cfg.root, ".bench_build"), "run-"+workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cfg.work)
	// Every run must end well inside the 180 s a run may take.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	r := newReport(workload)
	if err := fn(ctx, cfg, r); err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	defs := bench.EndToEnd
	if cfg.trace {
		defs = bench.PerLayer
	}
	if err := r.write(os.Stdout, defs, bench); err != nil {
		return err
	}
	if !r.correct() {
		return fmt.Errorf("%s: %d of %d ops failed, %d output checks failed: %s",
			workload, r.failed, r.attempted, len(r.checks), r.summary())
	}
	return nil
}

// runAll runs every workload in its own process (peak RSS must cover
// one run only), echoing their tables, and ends with one JSON line
// whose metrics are prefixed by workload.
func runAll(cfg *config) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type result struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	all := result{Correct: true, Metrics: map[string]json.RawMessage{}}
	var failed []string
	for _, w := range []string{"svc", "batch", "crawl"} {
		trace := "0"
		if cfg.trace {
			trace = "1"
		}
		cmd := exec.Command(self, "-root", cfg.root, "-workload", w,
			"-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds), "-trace", trace)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		var last string
		sc := bufio.NewScanner(strings.NewReader(string(out)))
		for sc.Scan() {
			if last != "" {
				fmt.Println(last)
			}
			last = sc.Text()
		}
		var res result
		if jerr := json.Unmarshal([]byte(last), &res); jerr != nil {
			fmt.Println(last)
			failed = append(failed, w)
			all.Correct = false
			continue
		}
		if err != nil || !res.Correct {
			failed = append(failed, w)
		}
		all.Correct = all.Correct && res.Correct && err == nil
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w+"."+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %s", strings.Join(failed, ", "))
	}
	return nil
}
