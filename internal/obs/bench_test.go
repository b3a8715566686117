package obs

import (
	"testing"
	"time"
)

// BenchmarkObsRecord measures the three record paths the rest of the
// stack calls from hot code. CI gates these at 0 allocs/op via
// cmd/benchgate against BENCH_micro.json — the contract that lets
// instrumentation sit on the access hot path without breaking the
// walk's zero-alloc step budget.
func BenchmarkObsRecord(b *testing.B) {
	b.Run("counter", func(b *testing.B) {
		var c Counter
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("gauge", func(b *testing.B) {
		var g Gauge
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Set(int64(i))
		}
	})
	b.Run("histogram", func(b *testing.B) {
		var h Histogram
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(time.Duration(i))
		}
	})
}
