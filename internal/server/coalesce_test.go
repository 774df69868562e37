package server_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"hyaline"
	"hyaline/internal/protocol"
	"hyaline/internal/server"
)

// TestCoalescedBatching is the acceptance test: 64 singleton-pipeline
// connections, per-connection mode vs coalesced mode, same op count.
// Per-connection mode issues one kv.Apply per op; coalescing must merge
// at least 8× better, with every reply still answering its own request:
// each connection SETs keys and values unique to it and reads each one
// back in the next round, so a reply routed to the wrong connection or
// round fails.
func TestCoalescedBatching(t *testing.T) {
	const conns = 64
	rounds := 50
	if testing.Short() {
		rounds = 10
	}
	run := func(opts server.Options) (ops, batches int64) {
		_, srv, addr := testServer(t, "hashmap", "hyaline", opts)
		var wg sync.WaitGroup
		for id := 0; id < conns; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				c, err := net.Dial("tcp", addr)
				if err != nil {
					t.Errorf("conn %d: %v", id, err)
					return
				}
				defer c.Close()
				w := protocol.NewWriter(c)
				rd := protocol.NewReader(c)
				for r := 0; r < rounds; r++ {
					// Even rounds SET a key unique to (conn, round), so
					// the insert must succeed; odd rounds GET it back and
					// must see the value only that SET wrote.
					key := uint64(id*rounds + r&^1)
					if r%2 == 0 {
						w.Set(key, key*31+7)
					} else {
						w.Get(key)
					}
					if err := w.Flush(); err != nil {
						t.Errorf("conn %d: %v", id, err)
						return
					}
					f, err := rd.ReadFrame()
					if err != nil {
						t.Errorf("conn %d: %v", id, err)
						return
					}
					if protocol.Status(f.Code) != protocol.StatusOK {
						t.Errorf("conn %d round %d: reply %s, want OK", id, r, protocol.Status(f.Code))
						return
					}
					want := 0
					if r%2 == 1 {
						want = 8
						if v, _ := protocol.U64(f.Payload); v != key*31+7 {
							t.Errorf("conn %d round %d: GET %d returned %d, want %d", id, r, key, v, key*31+7)
							return
						}
					}
					if len(f.Payload) != want {
						t.Errorf("conn %d round %d: %d-byte reply payload, want %d", id, r, len(f.Payload), want)
						return
					}
				}
			}(id)
		}
		wg.Wait()
		_, _, _, b := srv.Counters()
		return int64(conns * rounds), b
	}

	perOps, perBatches := run(server.Options{})
	if perBatches != perOps {
		t.Fatalf("per-connection mode: %d batches for %d singleton ops", perBatches, perOps)
	}
	// A generous window so the measurement is about merging, not about
	// scheduler jitter on a loaded CI machine.
	coOps, coBatches := run(server.Options{
		Coalesce:       true,
		CoalesceWindow: 2 * time.Millisecond,
	})
	if coBatches == 0 {
		t.Fatal("coalesced mode issued no batches")
	}
	if coBatches*8 > coOps {
		t.Fatalf("coalesced mode: %d batches for %d ops (%.1f ops/batch), want >= 8 ops/batch",
			coBatches, coOps, float64(coOps)/float64(coBatches))
	}
	t.Logf("per-conn: %d batches / %d ops; coalesced: %d batches / %d ops (%.1f ops/batch)",
		perBatches, perOps, coBatches, coOps, float64(coOps)/float64(coBatches))
}

// TestCoalescedPipelinedModel replays the single-client model check
// against a coalesced server: coalescing must be invisible to any one
// connection — same replies, same order, meta commands in their place.
// Every SET writes a value unique to its request, so a GET hit answered
// out of place returns a value the model does not expect.
func TestCoalescedPipelinedModel(t *testing.T) {
	_, _, addr := testServer(t, "hashmap", "hyaline", server.Options{
		MaxPipeline:    8,
		Coalesce:       true,
		CoalesceWindow: 200 * time.Microsecond,
	})
	_, w, rd := dial(t, addr)

	rng := rand.New(rand.NewSource(3))
	model := map[uint64]uint64{}
	windows := 30
	if testing.Short() {
		windows = 8
	}
	type pred struct {
		status protocol.Status
		val    uint64
		hasVal bool
	}
	for wnd := 0; wnd < windows; wnd++ {
		n := 1 + rng.Intn(40)
		var expect []pred
		for i := 0; i < n; i++ {
			key := uint64(rng.Intn(20))
			switch rng.Intn(4) {
			case 0:
				val := uint64(wnd)<<8 | uint64(i)
				w.Set(key, val)
				if _, ok := model[key]; ok {
					expect = append(expect, pred{status: protocol.StatusNil})
				} else {
					model[key] = val
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
			} else if len(f.Payload) != 0 {
				t.Fatalf("window %d op %d: %d-byte payload on a %s reply", wnd, i, len(f.Payload), e.status)
			}
		}
	}
}

// TestCoalescedBytes hammers a coalesced bytes server from several
// pipelined connections, each on its own key stripe against a model of
// it. Every SETB value is unique to its request, and GETB hits must
// return exactly the value the model holds: the shard worker's value
// buffer is reused across batches, so a stale alias (a scatter bug)
// shows up as cross-connection value corruption, and a reply out of
// place as a status, payload or value mismatch.
func TestCoalescedBytes(t *testing.T) {
	_, _, addr := testBytesServer(t, "hyaline", server.Options{
		Coalesce:       true,
		CoalesceWindow: 200 * time.Microsecond,
	})
	conns, windows := 8, 30
	if testing.Short() {
		conns, windows = 4, 8
	}
	type pred struct {
		status protocol.Status
		val    []byte // GETB hits only
	}
	var wg sync.WaitGroup
	for id := 0; id < conns; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Errorf("conn %d: %v", id, err)
				return
			}
			defer c.Close()
			w := protocol.NewWriter(c)
			rd := protocol.NewReader(c)
			rng := rand.New(rand.NewSource(int64(id)))
			model := map[string][]byte{}
			expect := make([]pred, 16)
			for wnd := 0; wnd < windows; wnd++ {
				for p := range expect {
					key := fmt.Sprintf("c%d-k%02d", id, rng.Intn(32))
					cur, present := model[key]
					switch rng.Intn(3) {
					case 0:
						val := bytes.Repeat([]byte(fmt.Sprintf("%s@%d.%d;", key, wnd, p)), 1+rng.Intn(4))
						w.SetB([]byte(key), val)
						expect[p] = pred{status: protocol.StatusNil}
						if !present {
							expect[p].status = protocol.StatusOK
							model[key] = val
						}
					case 1:
						w.DelB([]byte(key))
						expect[p] = pred{status: protocol.StatusNil}
						if present {
							expect[p].status = protocol.StatusOK
							delete(model, key)
						}
					default:
						w.GetB([]byte(key))
						expect[p] = pred{status: protocol.StatusNil}
						if present {
							expect[p] = pred{status: protocol.StatusOK, val: cur}
						}
					}
				}
				if err := w.Flush(); err != nil {
					t.Errorf("conn %d: %v", id, err)
					return
				}
				for p, e := range expect {
					f, err := rd.ReadFrame()
					if err != nil {
						t.Errorf("conn %d: %v", id, err)
						return
					}
					if got := protocol.Status(f.Code); got != e.status || !bytes.Equal(f.Payload, e.val) {
						t.Errorf("conn %d window %d op %d: %s %q, want %s %q", id, wnd, p, got, f.Payload, e.status, e.val)
						return
					}
				}
			}
		}(id)
	}
	wg.Wait()
}

// TestCoalescedDrain shuts the server down under active coalesced
// traffic: in-flight batches complete, handlers and shard workers exit,
// and no session lease is left in flight.
func TestCoalescedDrain(t *testing.T) {
	kv, err := hyaline.NewKV("hashmap", "hyaline", hyaline.KVOptions{MaxThreads: 4, ArenaCap: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(kv, server.Options{Coalesce: true, CoalesceWindow: 200 * time.Microsecond})
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	const conns = 8
	var wg sync.WaitGroup
	for id := 0; id < conns; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return
			}
			defer c.Close()
			w := protocol.NewWriter(c)
			rd := protocol.NewReader(c)
			for i := uint64(0); ; i++ {
				for p := uint64(0); p < 8; p++ {
					w.Set(i*8+p+uint64(id)<<32, p)
				}
				if err := w.Flush(); err != nil {
					return
				}
				for p := 0; p < 8; p++ {
					if _, err := rd.ReadFrame(); err != nil {
						return // drain deadline landed mid-stream
					}
				}
			}
		}(id)
	}

	time.Sleep(30 * time.Millisecond) // let traffic reach steady state
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown under coalesced traffic: %v", err)
	}
	if err := <-serveErr; err != server.ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}
	wg.Wait()
	if n := kv.InFlight(); n != 0 {
		t.Fatalf("%d session leases in flight after coalesced drain", n)
	}
	if _, _, _, batches := srv.Counters(); batches == 0 {
		t.Fatal("drain test saw no batches — traffic never reached the server")
	}
}

// TestWriteTimeout: a client that bursts requests and never reads its
// replies must not park the writer forever — the write deadline expires,
// the connection is torn down, and the handler pair exits.
func TestWriteTimeout(t *testing.T) {
	kv, srv, addr := testServer(t, "hashmap", "hyaline", server.Options{
		WriteTimeout: 100 * time.Millisecond,
	})
	_ = kv
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

	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, active, _, _ := srv.Counters(); active == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("connection still active: write timeout never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.Close()
	<-done
}

// TestConnChurnLeak opens, bursts and closes waves of connections in
// both serving modes, then checks nothing leaked: no active connections,
// no session leases in flight, and the goroutine count back at the
// server's baseline (handler pairs and shard workers all accounted for).
func TestConnChurnLeak(t *testing.T) {
	modes := []struct {
		name string
		opts server.Options
	}{
		{"perconn", server.Options{}},
		{"coalesced", server.Options{Coalesce: true, CoalesceWindow: 200 * time.Microsecond}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			kv, srv, addr := testServer(t, "hashmap", "hyaline", m.opts)
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
}
