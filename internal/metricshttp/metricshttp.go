// Package metricshttp mounts a metrics registry on an HTTP mux:
// /metrics (Prometheus text exposition), /metrics.json (the raw
// snapshot) and the standard net/http/pprof profiling handlers under
// /debug/pprof/ — the three endpoints `hyalined -metrics <addr>` serves.
//
// It is a package of its own so that only the binary that serves the
// endpoint links net/http, pprof and the TLS stack behind them: the
// registry, the server and the KV import internal/metrics, which
// imports nothing from net/http. The pprof handlers are mounted on this
// private mux explicitly rather than through the pprof package's
// DefaultServeMux side effect, so a process that mounts the handler
// does not silently grow debug endpoints on its own mux.
package metricshttp

import (
	"net/http"
	"net/http/pprof"

	"hyaline/internal/metrics"
)

// Handler returns the observability mux over r.
func Handler(r *metrics.Registry) http.Handler {
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
