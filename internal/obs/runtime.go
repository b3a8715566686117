package obs

// Runtime gauges: goroutine count, heap residency, bytes allocated and
// GC pause totals, computed at scrape time. runtime.ReadMemStats stops
// the world briefly, so one snapshot is shared across the
// memstats-backed gauges and cached for a short window — a scrape costs
// at most one stop-the-world read regardless of how many gauges it
// renders.

import (
	"runtime"
	"sync"
	"time"
)

// memCache is the shared, briefly-cached MemStats snapshot.
var memCache struct {
	mu   sync.Mutex
	at   time.Time
	stat runtime.MemStats
}

// memStats returns a MemStats snapshot at most maxAge old.
func memStats(maxAge time.Duration) runtime.MemStats {
	memCache.mu.Lock()
	defer memCache.mu.Unlock()
	if now := time.Now(); memCache.at.IsZero() || now.Sub(memCache.at) > maxAge {
		runtime.ReadMemStats(&memCache.stat)
		memCache.at = now
	}
	return memCache.stat
}

// RegisterRuntimeMetrics registers the Go runtime gauges on r. Default
// gets them automatically; fresh registries (tests, embedders) opt in.
func RegisterRuntimeMetrics(r *Registry) {
	const maxAge = time.Second
	r.GaugeFunc("histwalk_runtime_goroutines",
		"Current number of goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("histwalk_runtime_heap_alloc_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).",
		func() float64 { return float64(memStats(maxAge).HeapAlloc) })
	r.GaugeFunc("histwalk_runtime_heap_sys_bytes",
		"Bytes of heap memory obtained from the OS (runtime.MemStats.HeapSys).",
		func() float64 { return float64(memStats(maxAge).HeapSys) })
	r.CounterFunc("histwalk_runtime_alloc_bytes_total",
		"Cumulative bytes allocated for heap objects (runtime.MemStats.TotalAlloc).",
		func() float64 { return float64(memStats(maxAge).TotalAlloc) })
	r.CounterFunc("histwalk_runtime_gc_total",
		"Completed GC cycles (runtime.MemStats.NumGC).",
		func() float64 { return float64(memStats(maxAge).NumGC) })
	r.CounterFunc("histwalk_runtime_gc_pause_seconds_total",
		"Cumulative stop-the-world GC pause (runtime.MemStats.PauseTotalNs).",
		func() float64 { return float64(memStats(maxAge).PauseTotalNs) / 1e9 })
}

func init() { RegisterRuntimeMetrics(Default) }
