package server_test

import (
	"context"
	"errors"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"hyaline"
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
// connection readers and the poller loop.
func serverGoroutines(srv *server.Server) float64 {
	g, _ := srv.Metrics().Value("hyaline_server_goroutines")
	return g
}

// metric reads one of the server's unlabelled series.
func metric(srv *server.Server, name string) float64 {
	v, _ := srv.Metrics().Value(name)
	return v
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitParked waits until the server has parked the connection c dialled.
func waitParked(t *testing.T, srv *server.Server, c net.Conn) {
	t.Helper()
	waitFor(t, "the connection parks", func() bool { return server.IsParked(srv, c.LocalAddr()) })
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

// TestPollServing: a connection survives repeated park/respawn cycles.
// Before every burst it has idled past the linger and parked, so every
// burst is served by a reader the poller started, with replies intact.
func TestPollServing(t *testing.T) {
	skipWithoutPoller(t)
	_, srv, addr := testServer(t, "hashmap", "hyaline", server.Options{})
	c, w, rd := dial(t, addr)

	const rounds = 5
	for round := 0; round < rounds; round++ {
		waitParked(t, srv, c)
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
	}
	if n := metric(srv, "hyaline_server_poll_wakeups_total"); n != rounds {
		t.Errorf("%v readers started by the poller, want %d", n, rounds)
	}
}

// TestPollBusyKeepsReader: a connection whose windows come a quarter
// of a linger apart, for three lingers, keeps its reader. Its read
// deadline fires while the connection is busy and is moved on instead
// of parking it, so it parks at most once (a scheduling hiccup), not
// once per linger. The second time the deadline finds it busy, the
// reader drops the deadline and the poller's sweep watches the
// connection, in a goroutine of its own. When the windows stop, the
// sweep sends the reader to park, and then exits.
func TestPollBusyKeepsReader(t *testing.T) {
	skipWithoutPoller(t)
	_, srv, addr := testServer(t, "hashmap", "hyaline", server.Options{})
	c, w, rd := dial(t, addr)
	for i := 0; i < 12; i++ {
		w.Ping([]byte("busy"))
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		wantStatus(t, readFrame(t, rd), protocol.StatusOK)
		time.Sleep(server.IdleLinger / 4)
	}
	if n := metric(srv, "hyaline_server_poll_rearms_total"); n > 1 {
		t.Errorf("a busy connection parked %v times", n)
	}
	if n := metric(srv, "hyaline_server_poll_rearms_total"); n == 0 {
		if !server.IsWatched(srv, c.LocalAddr()) {
			t.Error("a busy connection is not watched by the sweep")
		}
		if g := serverGoroutines(srv); g != 3 {
			t.Errorf("%v server goroutines, want 3 (reader, poller loop, sweep)", g)
		}
	}
	waitParked(t, srv, c)
	waitFor(t, "the sweep exits", func() bool { return serverGoroutines(srv) == 1 })
}

// TestPollGoroutineBound: idle connections cost no goroutine. Once 64
// connections have each served a SET and idled past the linger, the
// hyaline_server_goroutines gauge reads 1, the poller loop, and every
// connection is parked; each still serves another round trip, and
// parks again after it.
func TestPollGoroutineBound(t *testing.T) {
	skipWithoutPoller(t)
	const nconns = 64
	_, srv, addr := testServer(t, "hashmap", "hyaline", server.Options{})

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

	allIdle := func() {
		t.Helper()
		waitFor(t, "every connection parks", func() bool {
			return metric(srv, "hyaline_server_conns_parked") == nconns
		})
		if g := serverGoroutines(srv); g != 1 {
			t.Fatalf("%d idle conns pin %v server goroutines, want 1 (the poller loop)", nconns, g)
		}
		if a := srv.ActiveConns(); a != 0 {
			t.Fatalf("%d active conns with every conn parked", a)
		}
	}
	allIdle()
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
	allIdle()
}

// TestPollChurnLeak: waves of connect/burst/park/disconnect must leak
// nothing — no active conns, no leases, goroutines back at baseline,
// and the descriptors of closed connections released. Each connection
// closes while parked, so the poller sees the close and its reader
// tears the conn down.
func TestPollChurnLeak(t *testing.T) {
	skipWithoutPoller(t)
	kv, srv, addr := testServer(t, "hashmap", "hyaline", server.Options{})
	if server.PollSupported() {
		// Serve starts the poller loop; count it in the baseline.
		waitFor(t, "the poller starts", func() bool { return serverGoroutines(srv) == 1 })
	}
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
				for deadline := time.Now().Add(10 * time.Second); !server.IsParked(srv, c.LocalAddr()); {
					if time.Now().After(deadline) {
						t.Error("the connection never parked")
						return
					}
					time.Sleep(time.Millisecond)
				}
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
			t.Fatalf("leak after churn: active=%d inFlight=%d goroutines=%d (base %d) fds=%d (base %d)",
				active, inFlight, goroutines, baseGor, fds, baseFDs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPollShutdownParked: Shutdown while connections sit parked (no
// reader attached, no goroutine to poke) sweeps them out of the poller
// and drains clean: it returns nil, no lease is in flight, the
// goroutine gauge reads 0, and a second Shutdown returns nil.
func TestPollShutdownParked(t *testing.T) {
	skipWithoutPoller(t)
	kv, err := hyaline.NewKV("hashmap", "hyaline", hyaline.KVOptions{MaxThreads: 4, ArenaCap: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(kv, server.Options{})
	addr, shutdown := serve(t, srv)

	const nconns = 8
	for i := 0; i < nconns; i++ {
		c, w, rd := dial(t, addr)
		w.Set(uint64(i), uint64(i))
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		wantStatus(t, readFrame(t, rd), protocol.StatusOK)
		waitParked(t, srv, c)
	}
	if g := serverGoroutines(srv); g != 1 {
		t.Fatalf("%v server goroutines with every conn parked, want 1", g)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if n := kv.InFlight(); n != 0 {
		t.Errorf("%d session leases in flight after Shutdown", n)
	}
	if g := serverGoroutines(srv); g != 0 {
		t.Errorf("%v server goroutines after Shutdown", g)
	}
	if _, active, _, _ := srv.Counters(); active != 0 {
		t.Errorf("%d connections open after Shutdown", active)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

// TestShutdownRacesPark holds a reader at the moment it has decided to
// park, runs Shutdown until the poller has stopped and swept, then lets
// the park go on. The poller must refuse the late park and the reader
// tear its conn down itself, once: Shutdown returns nil, no lease is in
// flight and the goroutine gauge reads 0. (A park that registered the
// conn before the sweep and armed it after once tore it down twice,
// and the second teardown panicked on the drain WaitGroup.)
func TestShutdownRacesPark(t *testing.T) {
	skipWithoutPoller(t)
	paused, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	defer server.SetParkHook(func() error {
		once.Do(func() {
			close(paused)
			<-release
		})
		return nil
	})()
	kv, err := hyaline.NewKV("hashmap", "hyaline", hyaline.KVOptions{MaxThreads: 4, ArenaCap: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(kv, server.Options{})
	addr, shutdown := serve(t, srv)
	_, w, rd := dial(t, addr)
	w.Set(1, 1)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	wantStatus(t, readFrame(t, rd), protocol.StatusOK)
	<-paused // the reader has idled past the linger

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- shutdown(ctx)
	}()
	swept := false
	for deadline := time.Now().Add(10 * time.Second); !swept && time.Now().Before(deadline); {
		select {
		case err := <-done:
			done <- err
			swept = true
		default:
			swept = server.DrainSwept(srv)
			time.Sleep(time.Millisecond)
		}
	}
	if !swept {
		t.Fatal("Shutdown never stopped the poller")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := kv.InFlight(); n != 0 {
		t.Errorf("%d session leases in flight after Shutdown", n)
	}
	waitFor(t, "the goroutine gauge reads 0", func() bool { return serverGoroutines(srv) == 0 })
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

// TestParkPartialFrame: a peer that sends half a frame and then waits
// past the linger gets its connection parked with the half frame still
// buffered; when the rest arrives, the reader the poller starts decodes
// the whole frame and answers it.
func TestParkPartialFrame(t *testing.T) {
	skipWithoutPoller(t)
	_, srv, addr := testServer(t, "hashmap", "hyaline", server.Options{})
	c, _, rd := dial(t, addr)
	frame := append(protocol.AppendSet(nil, 7, 70), protocol.AppendGet(nil, 7)...)
	half := protocol.HeaderSize + 3 // into the SET's payload
	if _, err := c.Write(frame[:half]); err != nil {
		t.Fatal(err)
	}
	waitParked(t, srv, c)
	if _, err := c.Write(frame[half:]); err != nil {
		t.Fatal(err)
	}
	wantStatus(t, readFrame(t, rd), protocol.StatusOK)
	f := readFrame(t, rd)
	wantStatus(t, f, protocol.StatusOK)
	if v, _ := protocol.U64(f.Payload); v != 70 {
		t.Fatalf("GET after a parked half frame returned %d, want 70", v)
	}
}

// TestParkArmFailureKeepsConn: when the poller cannot arm a descriptor
// (a full epoll watch table, say), the connection is not closed. Its
// reader keeps it, stops trying to park, and goes on serving, and
// Shutdown still drains clean.
func TestParkArmFailureKeepsConn(t *testing.T) {
	skipWithoutPoller(t)
	tried := make(chan struct{}, 1)
	defer server.SetParkHook(func() error {
		select {
		case tried <- struct{}{}:
		default:
		}
		return errors.New("arm refused")
	})()
	kv, err := hyaline.NewKV("hashmap", "hyaline", hyaline.KVOptions{MaxThreads: 4, ArenaCap: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(kv, server.Options{})
	addr, shutdown := serve(t, srv)
	_, w, rd := dial(t, addr)
	w.Set(3, 30)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	wantStatus(t, readFrame(t, rd), protocol.StatusOK)
	<-tried // the reader idled past the linger and its park failed
	time.Sleep(3 * server.IdleLinger)
	w.Get(3)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f := readFrame(t, rd)
	wantStatus(t, f, protocol.StatusOK)
	if v, _ := protocol.U64(f.Payload); v != 30 {
		t.Fatalf("GET after a failed park returned %d, want 30", v)
	}
	if len(tried) != 0 {
		t.Error("the reader tried to park again after its arm failed")
	}
	if g := serverGoroutines(srv); g != 2 {
		t.Errorf("%v server goroutines, want 2 (the reader and the poller loop)", g)
	}
	if n := metric(srv, "hyaline_server_poll_rearms_total"); n != 0 {
		t.Errorf("%v parks counted for a connection that never parked", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if n := kv.InFlight(); n != 0 {
		t.Errorf("%d session leases in flight after Shutdown", n)
	}
}
