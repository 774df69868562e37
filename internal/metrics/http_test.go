package metrics_test

import (
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"hyaline/internal/arena"
	"hyaline/internal/metrics"
	"hyaline/internal/metricshttp"
)

// TestHandlerEndpoints scrapes the daemon's observability mux over a
// registry with the process gauges. It is an external test because
// internal/metricshttp imports this package.
func TestHandlerEndpoints(t *testing.T) {
	r := metrics.NewRegistry()
	r.Counter("test_ops_total", "ops").Add(3)
	metrics.RegisterProcess(r)
	h := metricshttp.Handler(r)

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	if rec := get("/metrics"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "test_ops_total 3") {
		t.Fatalf("/metrics: code %d body %q", rec.Code, rec.Body.String())
	} else {
		metrics.CheckExposition(t, rec.Body.String())
	}
	// A live arena's slabs are in the off-heap gauge, not the heap one.
	a := arena.New(1 << 10)
	rec := get("/metrics.json")
	var pts []metrics.Point
	if err := json.Unmarshal(rec.Body.Bytes(), &pts); err != nil || len(pts) == 0 {
		t.Fatalf("/metrics.json: %v (%d points)", err, len(pts))
	}
	offheap := -1.0
	for _, p := range pts {
		if p.Name == "hyaline_process_offheap_bytes" {
			offheap = p.Value
		}
	}
	if want := float64(arena.Mapped()); offheap != want {
		t.Fatalf("hyaline_process_offheap_bytes = %v, want arena.Mapped() = %v", offheap, want)
	}
	runtime.KeepAlive(a)
	if rec := get("/debug/pprof/goroutine?debug=1"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatalf("/debug/pprof/goroutine: code %d", rec.Code)
	}
}
