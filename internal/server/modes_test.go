package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hyaline"
	"hyaline/internal/protocol"
	"hyaline/internal/server"
)

// TestServeModes drives the one serving path under two loads over a
// one- and a two-shard store of each key family with real client
// connections. In the per-conn rows windows follow each other at once,
// so each connection's first reader serves them all; in the parked
// rows every connection parks before each window, so every window is
// served by a reader the poller started. Every reply is checked
// against a per-connection model, and a lone request must be applied
// as one batch of its own. Then, with the clients still connected,
// Shutdown must return nil before its deadline, leave no session lease
// in flight, and bring the hyaline_server_goroutines gauge back to 0;
// a second Shutdown must return nil at once.
func TestServeModes(t *testing.T) {
	for _, parked := range []bool{false, true} {
		name := "per-conn"
		if parked {
			name = "parked"
		}
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				if parked {
					skipWithoutPoller(t)
				}
				t.Run("uint64", func(t *testing.T) { serveModel(t, parked, shards, false) })
				t.Run("bytes", func(t *testing.T) { serveModel(t, parked, shards, true) })
			})
		}
	}
}

// serveModel is one TestServeModes row: a hashmap store (a blist one
// for bytes keys) model-checked from two connections, each of which
// parks before every window when parked is set, then drained.
func serveModel(t *testing.T, parked bool, shards int, bytesKeys bool) {
	const conns = 2
	windows := 50
	if parked {
		windows = 20 // each one waits out the linger
	}
	kvopts := hyaline.KVOptions{MaxThreads: 2, ArenaCap: 1 << 14, BlobClassBudget: 1 << 20}
	var (
		kv  interface{ InFlight() int }
		srv *server.Server
	)
	if bytesKeys {
		bkv, err := hyaline.NewShardedKVBytes("blist", "hyaline", shards, kvopts)
		if err != nil {
			t.Fatal(err)
		}
		kv, srv = bkv, server.NewBytes(bkv, server.Options{})
	} else {
		ukv, err := hyaline.NewShardedKV("hashmap", "hyaline", shards, kvopts)
		if err != nil {
			t.Fatal(err)
		}
		kv, srv = ukv, server.New(ukv, server.Options{})
	}
	addr, shutdown := serve(t, srv)

	errs := make(chan error, conns)
	var wg sync.WaitGroup
	var w0 *protocol.Writer
	var rd0 *protocol.Reader
	for c := 0; c < conns; c++ {
		nc, w, rd := dial(t, addr)
		if c == 0 {
			w0, rd0 = w, rd
		}
		var beforeWindow func() error
		if parked {
			beforeWindow = func() error {
				for deadline := time.Now().Add(10 * time.Second); !server.IsParked(srv, nc.LocalAddr()); {
					if time.Now().After(deadline) {
						return errors.New("the connection never parked")
					}
					time.Sleep(time.Millisecond)
				}
				return nil
			}
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if err := driveModel(c, conns, windows, bytesKeys, w, rd, beforeWindow); err != nil {
				errs <- fmt.Errorf("conn %d: %w", c, err)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := metric(srv, "hyaline_server_poll_wakeups_total"); parked && n < conns*float64(windows) {
		t.Errorf("the poller started %v readers for %d parked windows", n, conns*windows)
	}

	// A lone request is applied as a batch of its own, at once: the
	// reader never holds a run back to merge it with other work.
	_, _, _, before := srv.Counters()
	if bytesKeys {
		w0.GetB([]byte("k0"))
	} else {
		w0.Get(0)
	}
	if err := w0.Flush(); err != nil {
		t.Fatal(err)
	}
	readFrame(t, rd0)
	if _, _, _, after := srv.Counters(); after != before+1 {
		t.Errorf("one singleton GET took %d apply batches, want 1", after-before)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- shutdown(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return within 10s")
	}
	if n := kv.InFlight(); n != 0 {
		t.Errorf("%d session leases in flight after Shutdown", n)
	}
	// A per-conn reader releases its drain unit just before its
	// goroutine returns, so give the gauge a moment.
	deadline := time.Now().Add(2 * time.Second)
	for serverGoroutines(srv) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%v server goroutines left after Shutdown", serverGoroutines(srv))
		}
		time.Sleep(time.Millisecond)
	}
	again, cancelAgain := context.WithTimeout(context.Background(), time.Second)
	defer cancelAgain()
	if err := srv.Shutdown(again); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// driveModel runs pipelined windows of SET/DEL/GET on connection c's own
// key stripe (key % conns == c) and checks each reply, by its position
// in the window, against a map model: its status, and each GET hit's
// value. beforeWindow, when set, runs before each window is sent. A window names a key at most once and a SET's value is unique
// to its (key, window), so a reply answering any other request shows
// up. With bytesKeys the frames are SETB/DELB/GETB, keys are the
// decimal strings of the same stripe and values are 1 to 4 repeats of
// a unique tag, so they vary in length; a value buffer the server
// reused too early shows up as a wrong GETB payload.
func driveModel(c, conns, windows int, bytesKeys bool, w *protocol.Writer, rd *protocol.Reader, beforeWindow func() error) error {
	const pipeline, keySpace = 8, 32
	type want struct {
		status protocol.Status
		val    []byte // the payload: a GET hit's value, else empty
	}
	rng := rand.New(rand.NewSource(int64(c) + 1))
	model := map[uint64][]byte{}
	wants := make([]want, pipeline)
	for win := 0; win < windows; win++ {
		if beforeWindow != nil {
			if err := beforeWindow(); err != nil {
				return fmt.Errorf("window %d: %w", win, err)
			}
		}
		base := rng.Intn(keySpace)
		for j := range wants {
			key := uint64(c + conns*((base+j)%keySpace))
			bkey := []byte(fmt.Sprintf("k%d", key))
			var val []byte
			if bytesKeys {
				val = bytes.Repeat([]byte(fmt.Sprintf("%d@%d;", key, win)), 1+rng.Intn(4))
			} else {
				val = binary.LittleEndian.AppendUint64(nil, key*31+uint64(win))
			}
			cur, present := model[key]
			x := want{status: protocol.StatusNil}
			switch rng.Intn(3) {
			case 0:
				if !present {
					x.status = protocol.StatusOK
					model[key] = val
				}
				if bytesKeys {
					w.SetB(bkey, val)
				} else {
					w.Set(key, binary.LittleEndian.Uint64(val))
				}
			case 1:
				if present {
					x.status = protocol.StatusOK
					delete(model, key)
				}
				if bytesKeys {
					w.DelB(bkey)
				} else {
					w.Del(key)
				}
			default:
				if present {
					x = want{status: protocol.StatusOK, val: cur}
				}
				if bytesKeys {
					w.GetB(bkey)
				} else {
					w.Get(key)
				}
			}
			wants[j] = x
		}
		if err := w.Flush(); err != nil {
			return err
		}
		for j, x := range wants {
			f, err := rd.ReadFrame()
			if err != nil {
				return err
			}
			if got := protocol.Status(f.Code); got != x.status || !bytes.Equal(f.Payload, x.val) {
				return fmt.Errorf("window %d reply %d: %s %q, want %s %q", win, j, got, f.Payload, x.status, x.val)
			}
		}
	}
	return nil
}
