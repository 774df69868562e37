package server_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hyaline"
	"hyaline/internal/protocol"
	"hyaline/internal/server"
)

// TestServeModes drives every serving configuration (per-conn, coalesce,
// poll, poll+coalesce) over a one- and a two-shard store with real
// client connections. Every reply is checked against a per-connection
// model. Then, with the clients still connected, Shutdown must return
// nil before its deadline, leave no session lease in flight, and bring
// the hyaline_server_goroutines gauge back to 0; a second Shutdown must
// return nil at once.
func TestServeModes(t *testing.T) {
	modes := []struct {
		name string
		opts server.Options
	}{
		{"per-conn", server.Options{}},
		{"coalesce", server.Options{Coalesce: true}},
		{"poll", server.Options{Poll: true}},
		{"poll+coalesce", server.Options{Poll: true, Coalesce: true}},
	}
	const conns = 2
	for _, m := range modes {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", m.name, shards), func(t *testing.T) {
				if m.opts.Poll {
					skipWithoutPoller(t)
				}
				kv, err := hyaline.NewShardedKV("hashmap", "hyaline", shards, hyaline.KVOptions{
					MaxThreads: 2,
					ArenaCap:   1 << 14,
				})
				if err != nil {
					t.Fatal(err)
				}
				srv := server.New(kv, m.opts)
				addr, shutdown := serve(t, srv)

				errs := make(chan error, conns)
				var wg sync.WaitGroup
				for c := 0; c < conns; c++ {
					_, w, rd := dial(t, addr)
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						if err := driveModel(c, conns, w, rd); err != nil {
							errs <- fmt.Errorf("conn %d: %w", c, err)
						}
					}(c)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Error(err)
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
				// A per-conn reader releases its drain unit just before
				// its goroutine returns, so give the gauge a moment.
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
			})
		}
	}
}

// driveModel runs pipelined windows of SET/DEL/GET on connection c's own
// key stripe (key % conns == c) and checks each reply, by its position
// in the window, against a map model: its status, and each GET's value.
// A window names a key at most once and a SET's value is unique to its
// (key, window), so a reply answering any other request shows up.
func driveModel(c, conns int, w *protocol.Writer, rd *protocol.Reader) error {
	const windows, pipeline, keySpace = 50, 8, 32
	type want struct {
		status protocol.Status
		val    uint64 // GET hits only
		get    bool
	}
	rng := rand.New(rand.NewSource(int64(c) + 1))
	model := map[uint64]uint64{}
	wants := make([]want, pipeline)
	for win := 0; win < windows; win++ {
		base := rng.Intn(keySpace)
		for j := range wants {
			key := uint64(c + conns*((base+j)%keySpace))
			val := key*31 + uint64(win)
			cur, present := model[key]
			var x want
			switch rng.Intn(3) {
			case 0:
				x.status = protocol.StatusNil
				if !present {
					x.status = protocol.StatusOK
					model[key] = val
				}
				w.Set(key, val)
			case 1:
				x.status = protocol.StatusNil
				if present {
					x.status = protocol.StatusOK
					delete(model, key)
				}
				w.Del(key)
			default:
				x = want{status: protocol.StatusNil, get: true}
				if present {
					x = want{status: protocol.StatusOK, val: cur, get: true}
				}
				w.Get(key)
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
			if got := protocol.Status(f.Code); got != x.status {
				return fmt.Errorf("window %d reply %d: %s (payload %q), want %s", win, j, got, f.Payload, x.status)
			}
			if x.get && x.status == protocol.StatusOK {
				if v, err := protocol.U64(f.Payload); err != nil || v != x.val {
					return fmt.Errorf("window %d reply %d: GET returned %d (%v), want %d", win, j, v, err, x.val)
				}
			} else if len(f.Payload) != 0 {
				return fmt.Errorf("window %d reply %d: %s carries a %d-byte payload", win, j, x.status, len(f.Payload))
			}
		}
	}
	return nil
}
