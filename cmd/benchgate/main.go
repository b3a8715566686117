// Command benchgate checks `go test -bench` output against the gates
// recorded in BENCH_micro.json and prints each benchmark's ns/op next
// to its recorded baseline.
//
// A gate is one of two kinds:
//
//   - a count gate {bench, metric, max}: every benchmark whose name
//     starts with bench must report at most max of metric, which is
//     allocs_per_op or b_per_op (both need -benchmem);
//   - a ratio gate {slow, fast, min}: ns/op(slow) / ns/op(fast) must be
//     at least min, both measured in the same run.
//
// Only host-independent numbers are gated: allocation counts, bytes and
// a ratio whose two sides stall on the same simulated latency. A gate
// whose benchmarks are missing from the input fails, because a contract
// that did not run has not passed. ns/op is host-dependent and is
// printed for information only.
//
// Usage (CI concatenates the output of these bench commands):
//
//	go test -run xxx -bench WalkStep -benchmem -benchtime 1000000x . > bench.out
//	go test -run xxx -bench ObsRecord -benchmem -benchtime 2000000x ./internal/obs/ >> bench.out
//	go test -run xxx -bench ColdStartLoad -benchmem -benchtime 3x ./internal/graphstore/ >> bench.out
//	go test -run xxx -bench PipelinedCrawl -benchtime 1x . >> bench.out
//	go run ./cmd/benchgate -baseline BENCH_micro.json < bench.out
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// baseline is BENCH_micro.json.
type baseline struct {
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
	Gates      []gate                        `json:"gates"`
}

// gate is a count gate (Bench, Metric, Max) or a ratio gate (Slow,
// Fast, Min).
type gate struct {
	Bench  string  `json:"bench"`
	Metric string  `json:"metric"`
	Max    float64 `json:"max"`
	Slow   string  `json:"slow"`
	Fast   string  `json:"fast"`
	Min    float64 `json:"min"`
}

// loadBaseline reads and validates a gate file.
func loadBaseline(path string) (*baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchgate: reading baseline: %w", err)
	}
	var b baseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("benchgate: parsing baseline %s: %w", path, err)
	}
	for i, g := range b.Gates {
		count := g.Bench != "" && (g.Metric == "allocs_per_op" || g.Metric == "b_per_op") && g.Slow+g.Fast == "" && g.Min == 0
		ratio := g.Slow != "" && g.Fast != "" && g.Min > 0 && g.Bench+g.Metric == "" && g.Max == 0
		if !count && !ratio {
			return nil, fmt.Errorf("benchgate: %s: gate %d is neither {bench, metric: allocs_per_op|b_per_op, max} nor {slow, fast, min > 0}", path, i)
		}
	}
	return &b, nil
}

// result is one parsed benchmark line.
type result struct {
	name    string // GOMAXPROCS suffix stripped, e.g. "BenchmarkWalkStep/CNRW"
	nsPerOp float64
	metrics map[string]float64 // b_per_op and allocs_per_op, with -benchmem
}

// benchLine matches `BenchmarkX/Y-8  1000  123 ns/op  4 B/op  0 allocs/op`
// (the -P GOMAXPROCS suffix and the memory columns are optional).
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

// parseBench extracts benchmark results from `go test -bench` output.
func parseBench(r io.Reader) ([]result, error) {
	var out []result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := m[1]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		res := result{name: name}
		var err error
		if res.nsPerOp, err = strconv.ParseFloat(m[2], 64); err != nil {
			return nil, fmt.Errorf("benchgate: bad ns/op in %q: %v", sc.Text(), err)
		}
		if m[4] != "" {
			b, errB := strconv.ParseFloat(m[3], 64)
			a, errA := strconv.ParseFloat(m[4], 64)
			if err := errors.Join(errB, errA); err != nil {
				return nil, fmt.Errorf("benchgate: bad memory columns in %q: %v", sc.Text(), err)
			}
			res.metrics = map[string]float64{"b_per_op": b, "allocs_per_op": a}
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// run is the testable body of main: it prints the report, checks every
// gate and returns the number of gates that failed.
func run(in io.Reader, out io.Writer, baselinePath string) (failures int, err error) {
	base, err := loadBaseline(baselinePath)
	if err != nil {
		return 0, err
	}
	results, err := parseBench(in)
	if err != nil {
		return 0, err
	}
	if len(results) == 0 {
		return 0, errors.New("benchgate: no benchmark results on stdin (did the bench run?)")
	}
	nsPerOp := map[string]float64{}
	for _, r := range results {
		nsPerOp[r.name] = r.nsPerOp // repeated runs (-count): last wins
	}
	report(out, base, results)
	for _, g := range base.Gates {
		msg, ok := check(g, results, nsPerOp)
		if ok {
			fmt.Fprintln(out, "gate ok:", msg)
			continue
		}
		failures++
		fmt.Fprintln(out, "GATE FAILED:", msg)
	}
	return failures, nil
}

// check evaluates one gate and describes the outcome.
func check(g gate, results []result, nsPerOp map[string]float64) (msg string, ok bool) {
	if g.Slow != "" {
		slow, okS := nsPerOp[g.Slow]
		fast, okF := nsPerOp[g.Fast]
		if !okS || !okF || fast <= 0 {
			return fmt.Sprintf("%s / %s: results missing from this run", g.Slow, g.Fast), false
		}
		ratio := slow / fast
		return fmt.Sprintf("%s / %s = %.2fx, min %.2fx", g.Slow, g.Fast, ratio, g.Min), ratio >= g.Min
	}
	worst, matched := 0.0, 0
	for _, r := range results {
		if !strings.HasPrefix(r.name, g.Bench) {
			continue
		}
		matched++
		v, has := r.metrics[g.Metric]
		if !has {
			return fmt.Sprintf("%s: no %s (run with -benchmem)", r.name, g.Metric), false
		}
		if v > g.Max {
			return fmt.Sprintf("%s: %s %g > max %g", r.name, g.Metric, v, g.Max), false
		}
		worst = max(worst, v)
	}
	if matched == 0 {
		return fmt.Sprintf("%s* %s: results missing from this run", g.Bench, g.Metric), false
	}
	return fmt.Sprintf("%s* %s: worst %g of %d, max %g", g.Bench, g.Metric, worst, matched, g.Max), true
}

// report prints every result's ns/op with the delta to its recorded
// baseline. Nothing here is gated.
func report(out io.Writer, base *baseline, results []result) {
	for _, r := range results {
		line := fmt.Sprintf("%-46s %14.1f ns/op", r.name, r.nsPerOp)
		if b := base.Benchmarks[r.name]["ns_per_op"]; b > 0 {
			line += fmt.Sprintf("   baseline %14.1f ns/op (%+6.1f%%)", b, 100*(r.nsPerOp-b)/b)
		}
		fmt.Fprintln(out, line)
	}
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_micro.json", "gate file with the gates and reference numbers")
	flag.Parse()
	failures, err := run(os.Stdin, os.Stdout, *baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d gate failure(s)\n", failures)
		os.Exit(1)
	}
	fmt.Println("benchgate: all gates passed")
}
