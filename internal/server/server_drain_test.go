package server_test

import (
	"context"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"hyaline"
	"hyaline/internal/protocol"
	"hyaline/internal/server"
)

// TestShutdownMalformedRace races Shutdown against a connection whose
// in-flight window ends in a malformed frame. The ERR-then-close path
// runs concurrently with the drain, and whichever side wins, no session
// lease may leak: InFlight must be zero once Shutdown returns. Each
// iteration uses a fresh server so the interleaving varies.
func TestShutdownMalformedRace(t *testing.T) {
	iters := 12
	if testing.Short() {
		iters = 4
	}

	run := func(t *testing.T, bytesMode bool) {
		// A structurally valid frame carrying a wrong-size payload for
		// its op — rejected by ValidateRequest, not by the reader.
		junk := protocol.AppendFrame(nil, byte(protocol.OpGet), []byte{1, 2, 3})
		if bytesMode {
			junk = protocol.AppendFrame(nil, byte(protocol.OpGetB), []byte{9, 0, 'a'})
		}
		for it := 0; it < iters; it++ {
			var (
				inFlight func() int
				srv      *server.Server
			)
			if bytesMode {
				kv, err := hyaline.NewKVBytes("blist", "hyaline", hyaline.KVOptions{
					MaxThreads: 4, ArenaCap: 1 << 14, BlobClassBudget: 1 << 18,
				})
				if err != nil {
					t.Fatal(err)
				}
				inFlight = kv.InFlight
				srv = server.NewBytes(kv, server.Options{MaxPipeline: 8})
			} else {
				kv, err := hyaline.NewKV("hashmap", "hyaline", hyaline.KVOptions{
					MaxThreads: 4, ArenaCap: 1 << 14,
				})
				if err != nil {
					t.Fatal(err)
				}
				inFlight = kv.InFlight
				srv = server.New(kv, server.Options{MaxPipeline: 8})
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			serveErr := make(chan error, 1)
			go func() { serveErr <- srv.Serve(ln) }()

			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			w := protocol.NewWriter(c)
			for i := uint64(0); i < 16; i++ {
				if bytesMode {
					w.SetB([]byte{byte(i)}, []byte("v"))
				} else {
					w.Set(i, i)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}

			// Race: the malformed tail lands while the drain is starting.
			shutdownErr := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				shutdownErr <- srv.Shutdown(ctx)
			}()
			c.Write(junk) // may race the server closing the conn; error is fine

			if err := <-shutdownErr; err != nil {
				t.Fatalf("iter %d: Shutdown: %v", it, err)
			}
			if err := <-serveErr; err != server.ErrServerClosed {
				t.Fatalf("iter %d: Serve returned %v, want ErrServerClosed", it, err)
			}
			if n := inFlight(); n != 0 {
				t.Fatalf("iter %d: %d session leases leaked through the drain", it, n)
			}
			// Whatever was answered before the cut must be a well-formed
			// reply stream: zero or more OKs, at most one ERR, then EOF.
			rd := protocol.NewReader(c)
			sawErr := false
			for {
				f, err := rd.ReadFrame()
				if err != nil {
					break
				}
				switch protocol.Status(f.Code) {
				case protocol.StatusOK:
					if sawErr {
						t.Fatalf("iter %d: OK reply after ERR", it)
					}
				case protocol.StatusErr:
					if sawErr {
						t.Fatalf("iter %d: two ERR replies", it)
					}
					sawErr = true
				default:
					t.Fatalf("iter %d: unexpected reply %s", it, protocol.Status(f.Code))
				}
			}
			c.Close()
		}
	}

	t.Run("uint64", func(t *testing.T) { run(t, false) })
	t.Run("bytes", func(t *testing.T) { run(t, true) })
}

// TestWriteTimeout: a client that bursts requests and never reads its
// replies must not park the writer forever — the write deadline expires,
// the connection is torn down, and its reader exits.
func TestWriteTimeout(t *testing.T) {
	_, srv, addr := testServer(t, "hashmap", "hyaline", server.Options{
		WriteTimeout: 100 * time.Millisecond,
	})
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Each PING echoes 16KiB back; the client never reads, so the
		// server's replies fill the kernel buffers and block the writer.
		frame := protocol.AppendPing(nil, make([]byte, 16<<10))
		for {
			if _, err := c.Write(frame); err != nil {
				return // server gave up on us
			}
		}
	}()

	// The client's writes fail only once the server has closed the
	// connection. Polling the active count alone would pass before the
	// server had even accepted it.
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("client writes still accepted: write timeout never fired")
	}
	c.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, active, _, _ := srv.Counters(); active == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("connection still active after the server closed it")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConnChurnLeak opens, bursts and closes waves of connections that
// close while their per-connection readers still hold them (the
// "perconn" case), then checks nothing leaked: no active connections,
// no session leases in flight, and the goroutine count back at the
// server's baseline (every reader exited; the poller loop was already
// running when the baseline was taken). TestPollChurnLeak is the same
// churn with connections that park before they close.
func TestConnChurnLeak(t *testing.T) {
	t.Run("perconn", func(t *testing.T) {
		kv, srv, addr := testServer(t, "hashmap", "hyaline", server.Options{})
		if server.PollSupported() {
			// Serve starts the poller loop; count it in the baseline.
			waitFor(t, "the poller starts", func() bool { return serverGoroutines(srv) == 1 })
		}
		base := runtime.NumGoroutine()

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
				}(wave*perWave + i)
			}
			wg.Wait()
		}

		deadline := time.Now().Add(10 * time.Second)
		for {
			_, active, _, _ := srv.Counters()
			inFlight := kv.InFlight()
			goroutines := runtime.NumGoroutine()
			if active == 0 && inFlight == 0 && goroutines <= base {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("leak after churn: active=%d inFlight=%d goroutines=%d (baseline %d)",
					active, inFlight, goroutines, base)
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}
