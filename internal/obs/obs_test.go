package obs

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the log₂ bucketing rule at its
// edges: bucket i holds durations whose nanosecond value has bit
// length i, so every power-of-two boundary (2^i - 1 inclusive below,
// 2^i opening the next bucket) must land exactly, zero goes to bucket
// 0, negatives clamp to zero, and anything at or beyond 2^(histBuckets-2)
// ns lands in the overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{0, 0},
		{-5 * time.Second, 0}, // negative clamps to 0
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{7, 3},
		{8, 4},
		{1023, 10},
		{1024, 11},
		{time.Duration(1)<<20 - 1, 20},
		{time.Duration(1) << 20, 21},
		{time.Duration(1)<<38 - 1, 38}, // last finite bucket's top
		{time.Duration(1) << 38, histBuckets - 1}, // first overflow value
		{time.Duration(math.MaxInt64), histBuckets - 1},
	}
	for _, tc := range cases {
		var h Histogram
		h.Observe(tc.d)
		for i := 0; i < histBuckets; i++ {
			want := int64(0)
			if i == tc.bucket {
				want = 1
			}
			if got := h.Bucket(i); got != want {
				t.Errorf("Observe(%d): bucket %d = %d, want %d", tc.d, i, got, want)
			}
		}
		if h.Count() != 1 {
			t.Errorf("Observe(%d): count = %d", tc.d, h.Count())
		}
	}
}

// TestHistogramBucketUpperBounds ties the exported boundary helper to
// the bucketing rule: a value equal to BucketUpperNs(i) must land in
// bucket <= i, and value+1 in bucket i+1.
func TestHistogramBucketUpperBounds(t *testing.T) {
	for i := 1; i < histBuckets-1; i++ {
		ub := BucketUpperNs(i)
		if ub != int64(1)<<uint(i)-1 {
			t.Fatalf("BucketUpperNs(%d) = %d", i, ub)
		}
		var h Histogram
		h.Observe(time.Duration(ub))
		if got := h.Bucket(i); got != 1 {
			t.Fatalf("upper bound %d of bucket %d landed elsewhere", ub, i)
		}
	}
	if BucketUpperNs(histBuckets-1) != -1 {
		t.Fatal("overflow bucket must report -1 (=+Inf)")
	}
}

// TestHistogramSumCount checks the aggregate accumulators.
func TestHistogramSumCount(t *testing.T) {
	var h Histogram
	h.Observe(10 * time.Millisecond)
	h.Observe(30 * time.Millisecond)
	h.Since(time.Now()) // ~0, still counted
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if s := h.Sum(); s < 40*time.Millisecond || s > 41*time.Millisecond {
		t.Fatalf("sum = %v", s)
	}
}

// TestCounterGauge covers the scalar record paths, including the
// negative-add guard on counters.
func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-100) // ignored: counters are monotone
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d", g.Value())
	}
}

// TestRegistryDedup: same name and kind returns the same handle; a
// kind clash panics.
func TestRegistryDedup(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "")
	b := r.Counter("x_total", "other help ignored")
	if a != b {
		t.Fatal("re-registration must return the existing counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Gauge("x_total", "")
}

// TestHistogramExpositionCumulative checks that the rendered buckets
// are cumulative and self-consistent with +Inf and _count.
func TestHistogramExpositionCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "")
	h.Observe(1)           // bucket 1
	h.Observe(3)           // bucket 2
	h.Observe(time.Minute) // bucket 36 (6e10 ns, bitlen 36)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0"} 0`,
		`lat_seconds_bucket{le="1e-09"} 1`,
		`lat_seconds_bucket{le="3e-09"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		`lat_seconds_count 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative counts never decrease down the bucket list.
	last := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "lat_seconds_bucket") {
			continue
		}
		var n int64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &n); err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("cumulative bucket count decreased at %q", line)
		}
		last = n
	}
}

// TestConcurrentRecordAndScrape hammers every record path while
// scraping; run under -race in CI, and the final totals must be exact.
func TestConcurrentRecordAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "")
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(time.Duration(i))
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if c.Value() != workers*perWorker {
		t.Fatalf("counter = %d", c.Value())
	}
	if g.Value() != workers*perWorker {
		t.Fatalf("gauge = %d", g.Value())
	}
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d", h.Count())
	}
}

// TestTracer pins the span wire shape: one JSON object per line,
// ts/ev first, fields in sorted key order.
func TestTracer(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.now = func() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) }
	tr.Emit("job.queued", F{"job": "j00001-aaaa", "chains": 4})
	tr.Emit("fetch.end", F{"node": 17, "ms": 1.5, "err": "boom"})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `{"ts":"2026-08-08T12:00:00Z","ev":"job.queued","chains":4,"job":"j00001-aaaa"}
{"ts":"2026-08-08T12:00:00Z","ev":"fetch.end","err":"boom","ms":1.5,"node":17}
`
	if buf.String() != want {
		t.Fatalf("trace output:\n%q\nwant:\n%q", buf.String(), want)
	}
}

// TestActiveTracer checks the global install/clear path.
func TestActiveTracer(t *testing.T) {
	if ActiveTracer() != nil {
		t.Fatal("tracer must default to nil")
	}
	tr := NewTracer(&bytes.Buffer{})
	SetTracer(tr)
	if ActiveTracer() != tr {
		t.Fatal("SetTracer did not install")
	}
	SetTracer(nil)
	if ActiveTracer() != nil {
		t.Fatal("SetTracer(nil) did not clear")
	}
}

// TestRuntimeMetricsRegistered: the Default registry exposes the
// runtime gauges with live values.
func TestRuntimeMetricsRegistered(t *testing.T) {
	var buf bytes.Buffer
	if err := Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{
		"histwalk_runtime_goroutines",
		"histwalk_runtime_heap_alloc_bytes",
		"histwalk_runtime_alloc_bytes_total",
		"histwalk_runtime_gc_pause_seconds_total",
	} {
		if !strings.Contains(out, "# TYPE "+name) {
			t.Errorf("Default registry missing %s", name)
		}
	}
}
