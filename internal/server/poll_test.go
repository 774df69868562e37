package server_test

import (
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"hyaline/internal/protocol"
	"hyaline/internal/server"
)

func skipWithoutPoller(t *testing.T) {
	t.Helper()
	if !server.PollSupported() {
		t.Skip("no readiness-poller backend on this platform")
	}
}

// serverGoroutines reads the server's hyaline_server_goroutines gauge:
// connection readers, poll workers and the poller loop.
func serverGoroutines(srv *server.Server) float64 {
	g, _ := srv.Metrics().Value("hyaline_server_goroutines")
	return g
}

// countFDs returns the process's open descriptor count, or -1 where
// /proc is unavailable.
func countFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestPollServing: a connection under Options.Poll survives repeated
// park/service cycles — idle gaps between windows re-park the fd, the
// next burst gets picked up by a worker — with replies intact.
func TestPollServing(t *testing.T) {
	skipWithoutPoller(t)
	_, _, addr := testServer(t, "hashmap", "hyaline", server.Options{Poll: true})
	_, w, rd := dial(t, addr)

	for round := 0; round < 5; round++ {
		key := uint64(round)
		w.Set(key, key*31+7)
		w.Get(key)
		w.Ping([]byte("alive"))
		if err := w.Flush(); err != nil {
			t.Fatalf("round %d flush: %v", round, err)
		}
		wantStatus(t, readFrame(t, rd), protocol.StatusOK)
		f := readFrame(t, rd)
		wantStatus(t, f, protocol.StatusOK)
		if v, _ := protocol.U64(f.Payload); v != key*31+7 {
			t.Fatalf("round %d GET returned %d", round, v)
		}
		wantStatus(t, readFrame(t, rd), protocol.StatusOK)
		// Idle long enough for the conn to be re-parked in the poller
		// before the next burst.
		time.Sleep(20 * time.Millisecond)
	}
}

// TestPollGoroutineBound: N mostly-idle polled connections cost
// O(workers) server goroutines, not O(N). 64 idle conns must keep the
// hyaline_server_goroutines gauge at the derived worker count + the
// poller loop (+ nothing per connection). GOMAXPROCS is pinned to 2 so
// that the pool (4 workers) stays far below 64 on any host.
func TestPollGoroutineBound(t *testing.T) {
	skipWithoutPoller(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const nconns = 64
	workers := server.PollWorkerCount()
	_, srv, addr := testServer(t, "hashmap", "hyaline", server.Options{Poll: true})

	var conns []net.Conn
	for i := 0; i < nconns; i++ {
		c, w, rd := dial(t, addr)
		w.Set(uint64(i), uint64(i))
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		wantStatus(t, readFrame(t, rd), protocol.StatusOK)
		conns = append(conns, c)
	}

	// Every connection is idle now; wait for the workers to re-park the
	// last of them.
	bound := float64(workers + 1) // workers + poller loop
	deadline := time.Now().Add(5 * time.Second)
	for {
		g := serverGoroutines(srv)
		if g <= bound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d idle conns pin %v server goroutines, want <= %v (poll mode must not be per-conn)",
				nconns, g, bound)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The parked connections are still live, not abandoned: each must
	// serve another round trip.
	for i, c := range conns {
		w := protocol.NewWriter(c)
		rd := protocol.NewReader(c)
		w.Get(uint64(i))
		if err := w.Flush(); err != nil {
			t.Fatalf("conn %d flush: %v", i, err)
		}
		f := readFrame(t, rd)
		wantStatus(t, f, protocol.StatusOK)
		if v, _ := protocol.U64(f.Payload); v != uint64(i) {
			t.Fatalf("conn %d GET returned %d", i, v)
		}
	}
}

// TestPollChurnLeak: waves of connect/burst/disconnect under the poller
// must leak nothing — no active conns, no leases, goroutines back at
// baseline, and the descriptors of closed connections released.
func TestPollChurnLeak(t *testing.T) {
	skipWithoutPoller(t)
	kv, srv, addr := testServer(t, "hashmap", "hyaline", server.Options{Poll: true})
	baseGor := runtime.NumGoroutine()
	baseFDs := countFDs()

	const waves, perWave, burst = 3, 8, 10
	for wave := 0; wave < waves; wave++ {
		var wg sync.WaitGroup
		for i := 0; i < perWave; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c, err := net.Dial("tcp", addr)
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				defer c.Close()
				w := protocol.NewWriter(c)
				rd := protocol.NewReader(c)
				for k := 0; k < burst; k++ {
					w.Set(uint64(i*burst+k), uint64(k))
				}
				if err := w.Flush(); err != nil {
					t.Errorf("flush: %v", err)
					return
				}
				for k := 0; k < burst; k++ {
					if _, err := rd.ReadFrame(); err != nil {
						t.Errorf("read: %v", err)
						return
					}
				}
				// Linger parked before closing so teardown exercises the
				// poller path, not just the service loop.
				time.Sleep(10 * time.Millisecond)
			}(wave*perWave + i)
		}
		wg.Wait()
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		_, active, _, _ := srv.Counters()
		inFlight := kv.InFlight()
		goroutines := runtime.NumGoroutine()
		fds := countFDs()
		// A couple of FDs of slack: the test's own sockets come and go.
		fdsOK := baseFDs < 0 || fds <= baseFDs+2
		if active == 0 && inFlight == 0 && goroutines <= baseGor && fdsOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak after poll churn: active=%d inFlight=%d goroutines=%d (base %d) fds=%d (base %d)",
				active, inFlight, goroutines, baseGor, fds, baseFDs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPollShutdownParked: Shutdown while connections sit parked in the
// poller (no worker attached, no goroutine to poke) must sweep them
// out and drain clean — the testServer cleanup asserts ErrServerClosed
// and a zero lease ledger.
func TestPollShutdownParked(t *testing.T) {
	skipWithoutPoller(t)
	_, srv, addr := testServer(t, "hashmap", "hyaline", server.Options{Poll: true})

	for i := 0; i < 8; i++ {
		_, w, rd := dial(t, addr)
		w.Set(uint64(i), uint64(i))
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		wantStatus(t, readFrame(t, rd), protocol.StatusOK)
	}
	// Wait until all eight are parked (no service pass running), then
	// return: the cleanup's Shutdown has only parked conns to reap.
	deadline := time.Now().Add(5 * time.Second)
	for serverGoroutines(srv) > float64(server.PollWorkerCount()+1) { // workers + loop
		if time.Now().After(deadline) {
			t.Fatalf("connections never went idle: %v server goroutines", serverGoroutines(srv))
		}
		time.Sleep(2 * time.Millisecond)
	}
}
