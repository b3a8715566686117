package main

// The run report: metric values with units and sample counts, failed
// output checks, and the output format — a human-readable table
// followed by the one-line JSON result.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricDef is one metric declared in BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchDef is the part of BENCHMARK.json the benchmark reads: the metric
// lists fix which metrics each mode prints, and their units.
type benchDef struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchDef(root string) (*benchDef, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var d benchDef
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return &d, nil
}

// value is one measured metric.
type value struct {
	v    float64
	unit string
	n    int // samples behind the value
}

// report collects one workload run's outcome.
type report struct {
	workload  string
	attempted int
	failed    int
	checks    []string // failed output checks
	values    map[string]value
}

func newReport(workload string) *report {
	return &report{workload: workload, values: map[string]value{}}
}

// set records a metric with its unit and the number of samples behind it.
func (r *report) set(name string, v float64, unit string, n int) {
	r.values[name] = value{v: v, unit: unit, n: n}
}

// fail records a failed output check.
func (r *report) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.checks) < 20 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", r.workload, msg)
	}
	r.checks = append(r.checks, msg)
}

// opDone counts one measured op, recording its failure if any.
func (r *report) opDone(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.fail("%v", err)
	}
}

// setEndToEnd records the end-to-end metrics every workload reports:
// set-up times, the run's blocks, per-op latencies (+Inf for a failed
// op), peak RSS and upstream requests per unit of chain budget.
func (r *report) setEndToEnd(setups []float64, blk *blocks, lat []float64, peakMB, upstream float64) {
	n := len(lat)
	r.set("setup_s", median(setups), "s", len(setups))
	r.set("ops_per_s", blk.opsPerS(), "1/s", blk.n())
	r.set("op_p50_ms", percentile(lat, 0.5), "ms", n)
	r.set("op_p90_ms", percentile(lat, 0.9), "ms", n)
	r.set("cpu_ms_per_op", blk.cpuMsPerOp(), "ms", blk.n())
	r.set("peak_rss_mb", peakMB, "MB", 1)
	r.set("upstream_req_per_query", upstream, "req/query", n)
}

// setRuntime records the Go runtime's cost per op between two reads.
func (r *report) setRuntime(m0, m1 *runtime.MemStats, n int) {
	fn := float64(n)
	r.set("runtime.alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/fn, "MB", n)
	r.set("runtime.gc_per_op", float64(m1.NumGC-m0.NumGC)/fn, "count", n)
	r.set("runtime.gc_pause_ms_per_op", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6/fn, "ms", n)
}

func (r *report) correct() bool { return len(r.checks) == 0 && r.failed == 0 }

// write prints the table of the metrics listed in defs, then the JSON
// result line. Metrics of layers the workload does not exercise are
// printed as 0 with a sample count of 0. A metric measured under a unit
// other than the declared one, or not declared at all, is a benchmark
// bug.
func (r *report) write(w io.Writer, defs []metricDef, bench *benchDef) error {
	type out struct {
		Value json.RawMessage `json:"value"`
		Unit  string          `json:"unit"`
	}
	metrics := map[string]out{}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if ok && v.unit != d.Unit {
			return fmt.Errorf("metric %s measured in %q, declared in %q", d.Name, v.unit, d.Unit)
		}
		fmt.Fprintf(w, "%-8s %-32s %14.4f %-6s n=%d\n", r.workload, d.Name, v.v, d.Unit, v.n)
		metrics[d.Name] = out{Value: json.RawMessage(formatNumber(v.v)), Unit: d.Unit}
	}
	for name := range r.values {
		if !declared(bench.EndToEnd, name) && !declared(bench.PerLayer, name) {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]out `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func declared(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// formatNumber renders v with all its digits; +Inf (a percentile over
// failed ops) becomes 1e999, which JSON readers parse as infinity.
// Metrics are never NaN: empty sample sets and zero counts read 0.
func formatNumber(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "1e999"
	case math.IsInf(v, -1):
		return "-1e999"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// percentile returns the q-quantile (0..1) of xs by linear
// interpolation between order statistics; +Inf entries (failed ops)
// sort last.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0 // no samples: printed as 0 with n=0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// div is a/b, or 0 when nothing was counted (every op failed).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// summary joins failed checks for the closing error message.
func (r *report) summary() string {
	if len(r.checks) > 3 {
		return strings.Join(r.checks[:3], "; ") + fmt.Sprintf("; and %d more", len(r.checks)-3)
	}
	return strings.Join(r.checks, "; ")
}
