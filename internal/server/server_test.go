package server_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"hyaline"
	"hyaline/internal/protocol"
	"hyaline/internal/server"
)

// serve runs srv on a loopback listener and returns its address and the
// call that shuts it down: Shutdown under ctx, then Serve's return,
// which must be ErrServerClosed. The test's cleanup shuts down again —
// Shutdown is safe to repeat — so a test that checks the drain itself
// just calls shutdown first.
func serve(t *testing.T, srv *server.Server) (string, func(context.Context) error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	var once sync.Once
	var served error
	shutdown := func(ctx context.Context) error {
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("Shutdown: %w", err)
		}
		once.Do(func() { served = <-serveErr })
		if served != server.ErrServerClosed {
			return fmt.Errorf("Serve returned %v, want ErrServerClosed", served)
		}
		return nil
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := shutdown(ctx); err != nil {
			t.Error(err)
		}
	})
	return ln.Addr().String(), shutdown
}

// noLeaseAfter checks, once the test's servers have shut down, that kv
// has no session lease in flight. Registered before serve, it runs
// after serve's cleanup.
func noLeaseAfter(t *testing.T, kv interface{ InFlight() int }) {
	t.Cleanup(func() {
		if n := kv.InFlight(); n != 0 {
			t.Errorf("%d session leases still in flight after shutdown", n)
		}
	})
}

// testServer starts an in-process server on a loopback listener and
// tears it down with the test.
func testServer(t *testing.T, structure, scheme string, opts server.Options) (*hyaline.KV, *server.Server, string) {
	t.Helper()
	kv, err := hyaline.NewKV(structure, scheme, hyaline.KVOptions{
		MaxThreads: 4,
		ArenaCap:   1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	noLeaseAfter(t, kv)
	srv := server.New(kv, opts)
	addr, _ := serve(t, srv)
	return kv, srv, addr
}

func dial(t *testing.T, addr string) (net.Conn, *protocol.Writer, *protocol.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, protocol.NewWriter(c), protocol.NewReader(c)
}

func readFrame(t *testing.T, rd *protocol.Reader) protocol.Frame {
	t.Helper()
	f, err := rd.ReadFrame()
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	return f
}

func wantStatus(t *testing.T, f protocol.Frame, want protocol.Status) {
	t.Helper()
	if protocol.Status(f.Code) != want {
		t.Fatalf("reply %s (payload %q), want %s", protocol.Status(f.Code), f.Payload, want)
	}
}

// TestRoundTrip walks every command over one connection.
func TestRoundTrip(t *testing.T) {
	_, _, addr := testServer(t, "hashmap", "hyaline", server.Options{})
	_, w, rd := dial(t, addr)

	w.Set(7, 700)
	w.Get(7)
	w.Get(8)      // miss
	w.Set(7, 701) // exists → NIL
	w.Del(7)
	w.Del(7) // absent → NIL
	w.Len()
	w.Ping([]byte("echo-me"))
	w.Stats()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	wantStatus(t, readFrame(t, rd), protocol.StatusOK) // SET 7
	f := readFrame(t, rd)                              // GET 7
	wantStatus(t, f, protocol.StatusOK)
	if v, _ := protocol.U64(f.Payload); v != 700 {
		t.Fatalf("GET returned %d, want 700", v)
	}
	wantStatus(t, readFrame(t, rd), protocol.StatusNil) // GET 8
	wantStatus(t, readFrame(t, rd), protocol.StatusNil) // SET exists
	wantStatus(t, readFrame(t, rd), protocol.StatusOK)  // DEL 7
	wantStatus(t, readFrame(t, rd), protocol.StatusNil) // DEL absent
	f = readFrame(t, rd)                                // LEN
	wantStatus(t, f, protocol.StatusOK)
	if v, _ := protocol.U64(f.Payload); v != 0 {
		t.Fatalf("LEN returned %d, want 0", v)
	}
	f = readFrame(t, rd) // PING
	wantStatus(t, f, protocol.StatusOK)
	if string(f.Payload) != "echo-me" {
		t.Fatalf("PING echoed %q", f.Payload)
	}
	f = readFrame(t, rd) // STATS
	wantStatus(t, f, protocol.StatusOK)
	st, err := protocol.ParseStats(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if st.Structure != "hashmap" || st.Scheme != "hyaline" || st.MaxThreads != 4 {
		t.Fatalf("stats identity: %+v", st)
	}
	if st.Conns != 1 || st.TotalConns != 1 {
		t.Fatalf("stats conn gauges: %+v", st)
	}
	if st.Ops == 0 {
		t.Fatalf("stats served-ops is zero: %+v", st)
	}
}

// TestPipelinedModel streams windows of mixed commands over one
// connection and checks every reply against a map model — a
// single-client stream is deterministic, so the model is exact. Meta
// commands are sprinkled in as ordering barriers.
func TestPipelinedModel(t *testing.T) {
	_, _, addr := testServer(t, "hashmap", "hyaline", server.Options{MaxPipeline: 8})
	_, w, rd := dial(t, addr)

	rng := rand.New(rand.NewSource(1))
	model := map[uint64]uint64{}
	windows := 50
	if testing.Short() {
		windows = 10
	}
	type pred struct {
		status protocol.Status
		val    uint64
		hasVal bool
	}
	for wnd := 0; wnd < windows; wnd++ {
		n := 1 + rng.Intn(40) // crosses the MaxPipeline=8 batch boundary
		var expect []pred
		for i := 0; i < n; i++ {
			key := uint64(rng.Intn(20))
			switch rng.Intn(4) {
			case 0:
				w.Set(key, key*100+uint64(wnd))
				if _, ok := model[key]; ok {
					expect = append(expect, pred{status: protocol.StatusNil})
				} else {
					model[key] = key*100 + uint64(wnd)
					expect = append(expect, pred{status: protocol.StatusOK})
				}
			case 1:
				w.Del(key)
				if _, ok := model[key]; ok {
					delete(model, key)
					expect = append(expect, pred{status: protocol.StatusOK})
				} else {
					expect = append(expect, pred{status: protocol.StatusNil})
				}
			case 2:
				w.Get(key)
				if v, ok := model[key]; ok {
					expect = append(expect, pred{status: protocol.StatusOK, val: v, hasVal: true})
				} else {
					expect = append(expect, pred{status: protocol.StatusNil})
				}
			case 3:
				w.Len()
				expect = append(expect, pred{status: protocol.StatusOK, val: uint64(len(model)), hasVal: true})
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		for i, e := range expect {
			f := readFrame(t, rd)
			if protocol.Status(f.Code) != e.status {
				t.Fatalf("window %d op %d: status %s, want %s", wnd, i, protocol.Status(f.Code), e.status)
			}
			if e.hasVal {
				v, err := protocol.U64(f.Payload)
				if err != nil {
					t.Fatalf("window %d op %d: %v", wnd, i, err)
				}
				if v != e.val {
					t.Fatalf("window %d op %d: value %d, want %d", wnd, i, v, e.val)
				}
			}
		}
	}
}

// TestConcurrentConns hammers the server from many pipelined
// connections; every GET hit is integrity-checked against the seeded
// value pattern. Run under -race this is the oversubscription test:
// conns × 2 goroutines over 4 leased tids.
func TestConcurrentConns(t *testing.T) {
	_, _, addr := testServer(t, "hashmap", "hyaline-1s", server.Options{})
	conns, windows := 8, 60
	if testing.Short() {
		conns, windows = 4, 15
	}
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			w := protocol.NewWriter(c)
			rd := protocol.NewReader(c)
			rng := rand.New(rand.NewSource(int64(i)))
			kinds := make([]protocol.Op, 16)
			keys := make([]uint64, 16)
			for wnd := 0; wnd < windows; wnd++ {
				for p := range kinds {
					key := uint64(rng.Intn(512))
					keys[p] = key
					switch rng.Intn(3) {
					case 0:
						kinds[p] = protocol.OpSet
						w.Set(key, key*31+7)
					case 1:
						kinds[p] = protocol.OpDel
						w.Del(key)
					default:
						kinds[p] = protocol.OpGet
						w.Get(key)
					}
				}
				if err := w.Flush(); err != nil {
					errs <- err
					return
				}
				for p := range kinds {
					f, err := rd.ReadFrame()
					if err != nil {
						errs <- err
						return
					}
					if protocol.Status(f.Code) == protocol.StatusErr {
						errs <- io.ErrUnexpectedEOF
						return
					}
					if kinds[p] == protocol.OpGet && protocol.Status(f.Code) == protocol.StatusOK {
						v, _ := protocol.U64(f.Payload)
						if v != keys[p]*31+7 {
							t.Errorf("corrupted read: key %d → %d", keys[p], v)
							return
						}
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMalformedFrame: a desynced or oversized request gets an ERR reply
// and the connection is closed, with earlier pipelined requests still
// answered in order.
func TestMalformedFrame(t *testing.T) {
	cases := []struct {
		name string
		junk []byte
	}{
		{"zero code", []byte{0, 0, 0}},
		{"unknown op", protocol.AppendFrame(nil, 0x6f, nil)},
		{"oversized get", protocol.AppendFrame(nil, byte(protocol.OpGet), make([]byte, 100))},
		{"len with payload", protocol.AppendFrame(nil, byte(protocol.OpLen), []byte{1})},
		{"hello", protocol.AppendFrame(nil, 0x0a, []byte{1})}, // 0x0a is unassigned
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, addr := testServer(t, "hashmap", "epoch", server.Options{})
			conn, w, rd := dial(t, addr)
			w.Set(1, 10) // well-formed prefix must still be answered
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(c.junk); err != nil {
				t.Fatal(err)
			}
			wantStatus(t, readFrame(t, rd), protocol.StatusOK) // the SET
			f := readFrame(t, rd)
			wantStatus(t, f, protocol.StatusErr)
			if len(f.Payload) == 0 {
				t.Fatal("ERR reply with empty message")
			}
			if _, err := rd.ReadFrame(); err == nil {
				t.Fatal("connection survived a protocol error")
			}
		})
	}
}

// TestMalformedFrameSegmentation pins the framing-error reply against
// how TCP happened to segment the junk, deterministically: in its own
// segment (written only after the prefix's reply has been read, so the
// server is back in its blocking ReadFrame) and in the same write as the
// prefix (found by TryReadFrame mid-window). Both must answer ERR and
// close, whether the junk reaches the connection's first reader or,
// with poll set, one the poller started after the connection parked.
func TestMalformedFrameSegmentation(t *testing.T) {
	for _, poll := range []bool{false, true} {
		if poll && !server.PollSupported() {
			continue
		}
		for _, ownSegment := range []bool{true, false} {
			t.Run(fmt.Sprintf("poll=%v/ownSegment=%v", poll, ownSegment), func(t *testing.T) {
				_, srv, addr := testServer(t, "hashmap", "epoch", server.Options{})
				conn, _, rd := dial(t, addr)
				prefix := protocol.AppendSet(nil, 1, 10)
				junk := []byte{0, 0, 0}
				if poll {
					waitParked(t, srv, conn)
				}
				if ownSegment {
					if _, err := conn.Write(prefix); err != nil {
						t.Fatal(err)
					}
					wantStatus(t, readFrame(t, rd), protocol.StatusOK)
					if poll {
						waitParked(t, srv, conn)
					}
					if _, err := conn.Write(junk); err != nil {
						t.Fatal(err)
					}
				} else {
					if _, err := conn.Write(append(prefix, junk...)); err != nil {
						t.Fatal(err)
					}
					wantStatus(t, readFrame(t, rd), protocol.StatusOK)
				}
				f := readFrame(t, rd)
				wantStatus(t, f, protocol.StatusErr)
				if len(f.Payload) == 0 {
					t.Fatal("ERR reply with empty message")
				}
				if _, err := rd.ReadFrame(); err == nil {
					t.Fatal("connection survived a protocol error")
				}
			})
		}
	}
}

// applyingStore closes started when the first batch reaches the store
// and then holds that batch for hold before applying it: the window is
// mid-apply at a moment the test can wait for.
type applyingStore struct {
	server.Store
	once    sync.Once
	started chan struct{}
	hold    time.Duration
}

func (s *applyingStore) ApplyInto(dst []hyaline.Result, ops []hyaline.Op) []hyaline.Result {
	s.once.Do(func() {
		close(s.started)
		time.Sleep(s.hold)
	})
	return s.Store.ApplyInto(dst, ops)
}

// TestGracefulShutdown: in-flight pipelined windows complete, their
// replies arrive, Serve returns ErrServerClosed, no leases leak, and new
// connections are refused.
func TestGracefulShutdown(t *testing.T) {
	kv, err := hyaline.NewKV("hashmap", "hyaline", hyaline.KVOptions{MaxThreads: 4, ArenaCap: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	store := &applyingStore{Store: kv, started: make(chan struct{}), hold: 20 * time.Millisecond}
	srv := server.New(store, server.Options{})
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	// A connection with a full window in flight…
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := protocol.NewWriter(c)
	rd := protocol.NewReader(c)
	const inFlight = 32
	for i := uint64(0); i < inFlight; i++ {
		w.Set(i, i)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// …and an idle one parked in a blocking read.
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	// Shut down while the window is being applied. Without the wait, the
	// drain could start before the server has read the window at all,
	// and a window that was never read is not in flight.
	select {
	case <-store.started:
	case <-time.After(10 * time.Second):
		t.Fatal("the pipelined window never reached the store")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != server.ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}

	// The in-flight window was drained: all replies then EOF.
	got := 0
	for {
		f, err := rd.ReadFrame()
		if err != nil {
			break
		}
		wantStatus(t, f, protocol.StatusOK)
		got++
	}
	if got != inFlight {
		t.Fatalf("drained %d replies, want %d", got, inFlight)
	}
	if n := kv.InFlight(); n != 0 {
		t.Fatalf("%d leases in flight after drain", n)
	}
	if kv.Len() != inFlight {
		t.Fatalf("Len=%d after drain, want %d", kv.Len(), inFlight)
	}
	// The listener is gone.
	if c2, err := net.Dial("tcp", addr); err == nil {
		c2.Close()
		t.Fatal("dial succeeded after shutdown")
	}
	// Serving again on a closed server refuses immediately.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln2); err != server.ErrServerClosed {
		t.Fatalf("Serve after Shutdown returned %v", err)
	}
}
