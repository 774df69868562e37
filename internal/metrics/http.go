// http.go mounts the registry on an HTTP mux: /metrics (Prometheus text
// exposition), /metrics.json (the raw snapshot) and the standard
// net/http/pprof profiling handlers under /debug/pprof/ — the three
// endpoints `hyalined -metrics <addr>` serves. The pprof handlers are
// mounted on this private mux explicitly rather than through the
// package's DefaultServeMux side effect, so a process embedding the
// server does not silently grow debug endpoints on its own mux.
package metrics

import (
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"

	"hyaline/internal/arena"
)

// Handler returns the observability mux over r.
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteProm(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		r.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

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
