package server

import (
	"testing"
	"time"
)

// TestInstrumentZeroAllocs pins the serve-path contract on the server's
// own instrument set: every metrics touch the hot path makes — counter
// add, gauge move, latency/size observation — stays allocation-free.
// The instruments here are the exact pointers window/flushOps/write
// use, so a regression in internal/metrics or in how the server holds
// them fails this test before it fails a benchmark.
func TestInstrumentZeroAllocs(t *testing.T) {
	m := newSrvMetrics(nil)
	if avg := testing.AllocsPerRun(1000, func() {
		m.served.Add(7)
		m.batches.Inc()
		m.bytesIn.Add(256)
		m.bytesOut.Add(128)
		m.pollWakeups.Inc()
		m.pollRearms.Inc()
		m.goroutines.Inc()
		m.goroutines.Dec()
		m.opLatency.ObserveN(15*time.Microsecond, 7)
		m.batchOps.ObserveSize(7)
	}); avg != 0 {
		t.Fatalf("metrics on the serve path allocate: %.2f allocs/op", avg)
	}
}
