// process.go holds the process-level gauges and the descriptor count
// they and the bench harness share. The HTTP view over a registry is
// internal/metricshttp, so nothing here pulls in net/http.
package metrics

import (
	"os"
	"runtime"

	"hyaline/internal/arena"
)

// RegisterProcess adds the process-level gauges every hyaline binary
// wants next to its server families: runtime goroutines, open file
// descriptors, Go heap in use and the arena slabs mapped beside it. All
// are sampled at scrape time.
func RegisterProcess(r *Registry) {
	r.GaugeFunc("hyaline_process_goroutines",
		"Goroutines in the process (runtime.NumGoroutine).",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("hyaline_process_open_fds",
		"Open file descriptors, via /proc/self/fd (0 where /proc is unavailable).",
		func() float64 { return float64(OpenFDs()) })
	r.GaugeFunc("hyaline_process_heap_bytes",
		"Go heap bytes in use (runtime.MemStats.HeapInuse); excludes the arena slabs mapped outside the heap (hyaline_process_offheap_bytes).",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapInuse)
		})
	r.GaugeFunc("hyaline_process_offheap_bytes",
		"Arena node and blob slab bytes mapped outside the Go heap (arena.Mapped); virtual until touched, 0 in race builds.",
		func() float64 { return float64(arena.Mapped()) })
}

// OpenFDs reports the process's open descriptor count via /proc/self/fd,
// or 0 where /proc is unavailable (callers omit the gauge rather than
// fabricate it). Shared with the bench harness's descriptor high-water
// sampling.
func OpenFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	return len(ents)
}
