package obs

import (
	"runtime/metrics"
	"sync/atomic"
)

// The process's own memory, so "how much did the last rounds allocate"
// is a /metrics question rather than a stopwatch around
// runtime.ReadMemStats. Nothing here runs between scrapes: the three
// series are read from runtime/metrics (no stop-the-world) when the
// registry is exposed, so rounds and folds pay nothing for them.
func init() { Default.registerRuntime() }

func (r *Registry) registerRuntime() {
	allocs := r.Counter("fedsz_runtime_alloc_bytes_total", "Cumulative bytes allocated on the Go heap, sampled at scrape time")
	live := r.Gauge("fedsz_runtime_heap_live_bytes", "Heap bytes live after the last completed GC cycle, sampled at scrape time")
	cycles := r.Counter("fedsz_runtime_gc_cycles_total", "Completed GC cycles, sampled at scrape time")
	r.onScrape(func() {
		s := []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/gc/heap/live:bytes"},
			{Name: "/gc/cycles/total:gc-cycles"},
		}
		metrics.Read(s)
		// The runtime's totals are stored, not added, and regardless of
		// SetDisabled: that switch is about hot-path updates.
		for i, v := range []*atomic.Int64{&allocs.v, &live.v, &cycles.v} {
			if s[i].Value.Kind() == metrics.KindUint64 {
				v.Store(int64(s[i].Value.Uint64()))
			}
		}
	})
}
