package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// gateFile is the checked-in gate file every CI run is checked against.
const gateFile = "../../BENCH_micro.json"

// cleanRun holds a passing result for every gate in BENCH_micro.json,
// plus results no gate matches.
const cleanRun = `
goos: linux
BenchmarkWalkStep/SRW-8                       	 1000000	        26.29 ns/op	       0 B/op	       0 allocs/op
BenchmarkWalkStep/CNRW                        	 1000000	       287.9 ns/op	      18 B/op	       0 allocs/op
BenchmarkObsRecord/counter-8                  	 2000000	         6.1 ns/op	       0 B/op	       0 allocs/op
BenchmarkColdStartLoad/mmap-8                 	       3	    100000 ns/op	     728 B/op	      10 allocs/op
BenchmarkColdStartLoad/text-8                 	       3	 118750076 ns/op	38707944 B/op	  509175 allocs/op
BenchmarkPipelinedCrawl/w=1/chains=1          	       1	1600000000 ns/op	       135.0 demand_misses
BenchmarkPipelinedCrawl/w=32/chains=1         	       1	 250000000 ns/op	         8.000 demand_misses
PASS
`

// withLine returns cleanRun with the line of benchmark name replaced by
// line, or dropped when line is empty.
func withLine(t *testing.T, name, line string) string {
	t.Helper()
	var out []string
	found := false
	for _, l := range strings.Split(cleanRun, "\n") {
		if f := strings.Fields(l); len(f) > 0 && strings.TrimSuffix(f[0], "-8") == name {
			found = true
			if line == "" {
				continue
			}
			l = line
		}
		out = append(out, l)
	}
	if !found {
		t.Fatalf("cleanRun has no %s line", name)
	}
	return strings.Join(out, "\n")
}

// gateRun runs the gate over in against the checked-in gate file.
func gateRun(t *testing.T, in string) (failures int, out string) {
	t.Helper()
	var b strings.Builder
	failures, err := run(strings.NewReader(in), &b, gateFile)
	if err != nil {
		t.Fatal(err)
	}
	return failures, b.String()
}

// wantFailures checks the failure count and that every want string
// appears in the report.
func wantFailures(t *testing.T, in string, n int, want ...string) {
	t.Helper()
	failures, out := gateRun(t, in)
	if failures != n {
		t.Fatalf("failures = %d, want %d\n%s", failures, n, out)
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Fatalf("report missing %q:\n%s", w, out)
		}
	}
}

// TestCheckedInGates pins every gate's bound: moving one is a decision
// this test makes visible.
func TestCheckedInGates(t *testing.T) {
	b, err := loadBaseline(gateFile)
	if err != nil {
		t.Fatal(err)
	}
	want := []gate{
		{Bench: "BenchmarkWalkStep/", Metric: "allocs_per_op", Max: 1},
		{Bench: "BenchmarkWalkStep/", Metric: "b_per_op", Max: 64},
		{Bench: "BenchmarkObsRecord/", Metric: "allocs_per_op", Max: 0},
		{Bench: "BenchmarkColdStartLoad/mmap", Metric: "allocs_per_op", Max: 32},
		{Bench: "BenchmarkColdStartLoad/mmap", Metric: "b_per_op", Max: 8192},
		{Slow: "BenchmarkPipelinedCrawl/w=1/chains=1", Fast: "BenchmarkPipelinedCrawl/w=32/chains=1", Min: 5.0},
	}
	if !reflect.DeepEqual(b.Gates, want) {
		t.Fatalf("gates =\n%+v\nwant\n%+v", b.Gates, want)
	}
}

func TestGatePassesCleanRun(t *testing.T) {
	// The text cold start allocates far past every ceiling; no gate's
	// prefix matches it. ns/op is reported against the recorded
	// baseline, ungated.
	failures, out := gateRun(t, cleanRun)
	if failures != 0 || strings.Contains(out, "GATE FAILED") {
		t.Fatalf("failures = %d, want 0\n%s", failures, out)
	}
	for _, w := range []string{
		"BenchmarkWalkStep/* allocs_per_op: worst 0 of 2, max 1",
		"BenchmarkWalkStep/* b_per_op: worst 18 of 2, max 64",
		"BenchmarkColdStartLoad/mmap* allocs_per_op: worst 10 of 1, max 32",
		"= 6.40x, min 5.00x",
		"baseline           24.3 ns/op (  +8.1%)", // BenchmarkWalkStep/SRW
	} {
		if !strings.Contains(out, w) {
			t.Fatalf("report missing %q:\n%s", w, out)
		}
	}
}

func TestGateFailsOnAllocRegression(t *testing.T) {
	wantFailures(t, withLine(t, "BenchmarkWalkStep/CNRW",
		"BenchmarkWalkStep/CNRW-4 	 1000000	       300.0 ns/op	      48 B/op	       3 allocs/op"),
		1, "GATE FAILED: BenchmarkWalkStep/CNRW: allocs_per_op 3 > max 1")
}

func TestGateFailsOnByteRegression(t *testing.T) {
	wantFailures(t, withLine(t, "BenchmarkWalkStep/CNRW",
		"BenchmarkWalkStep/CNRW-4 	 1000000	       300.0 ns/op	     120 B/op	       1 allocs/op"),
		1, "GATE FAILED: BenchmarkWalkStep/CNRW: b_per_op 120 > max 64")
}

// The record-path gate is an explicit 0: one allocation fails it.
func TestZeroAllocGate(t *testing.T) {
	wantFailures(t, withLine(t, "BenchmarkObsRecord/counter",
		"BenchmarkObsRecord/counter-8 	 2000000	       6.1 ns/op	       8 B/op	       1 allocs/op"),
		1, "GATE FAILED: BenchmarkObsRecord/counter: allocs_per_op 1 > max 0")
}

// A count gate over output run without -benchmem must not pass
// silently: both WalkStep gates fail.
func TestGateFailsWithoutBenchmem(t *testing.T) {
	wantFailures(t, withLine(t, "BenchmarkWalkStep/SRW",
		"BenchmarkWalkStep/SRW 	 1000000	       26.3 ns/op"),
		2, "BenchmarkWalkStep/SRW: no allocs_per_op (run with -benchmem)")
}

// A gated bench command dropped from the run fails its gates.
func TestGateFailsWhenBenchMissing(t *testing.T) {
	wantFailures(t, withLine(t, "BenchmarkColdStartLoad/mmap", ""),
		2, "GATE FAILED: BenchmarkColdStartLoad/mmap* b_per_op: results missing")
}

func TestGateErrorsOnEmptyInput(t *testing.T) {
	var out strings.Builder
	if _, err := run(strings.NewReader("PASS\n"), &out, gateFile); err == nil {
		t.Fatal("want error when no benchmark results are present")
	}
}

// The ratio gate is inclusive: exactly the minimum passes.
func TestSpeedupGatePasses(t *testing.T) {
	wantFailures(t, withLine(t, "BenchmarkPipelinedCrawl/w=1/chains=1",
		"BenchmarkPipelinedCrawl/w=1/chains=1 	       1	1250000000 ns/op"),
		0, "= 5.00x, min 5.00x")
}

func TestSpeedupGateFailsBelowMinimum(t *testing.T) {
	wantFailures(t, withLine(t, "BenchmarkPipelinedCrawl/w=1/chains=1",
		"BenchmarkPipelinedCrawl/w=1/chains=1 	       1	 900000000 ns/op"),
		1, "GATE FAILED: BenchmarkPipelinedCrawl/w=1/chains=1 / BenchmarkPipelinedCrawl/w=32/chains=1 = 3.60x, min 5.00x")
}

func TestSpeedupGateFailsWhenPairMissing(t *testing.T) {
	wantFailures(t, withLine(t, "BenchmarkPipelinedCrawl/w=32/chains=1", ""),
		1, "results missing from this run")
}

func TestLoadBaselineRejectsMalformedGates(t *testing.T) {
	for _, g := range []string{
		`{"bench": "BenchmarkWalkStep/", "metric": "ns_per_op", "max": 1}`,
		`{"metric": "allocs_per_op", "max": 1}`,
		`{"slow": "BenchmarkA", "fast": "BenchmarkB"}`,
		`{"slow": "BenchmarkA", "min": 2}`,
		`{"bench": "BenchmarkA", "metric": "b_per_op", "slow": "BenchmarkA", "fast": "BenchmarkB", "min": 2}`,
	} {
		p := filepath.Join(t.TempDir(), "gates.json")
		if err := os.WriteFile(p, []byte(`{"gates": [`+g+`]}`), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadBaseline(p); err == nil {
			t.Errorf("gate %s accepted", g)
		}
	}
}
