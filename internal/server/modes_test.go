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
// poll, poll+ooo) over a one- and a two-shard store with real client
// connections. Every reply is checked against a per-connection model.
// Then, with the clients still connected, Shutdown must return nil
// before its deadline, leave no session lease in flight, and bring the
// hyaline_server_goroutines gauge back to 0.
func TestServeModes(t *testing.T) {
	modes := []struct {
		name string
		opts server.Options
	}{
		{"per-conn", server.Options{}},
		{"coalesce", server.Options{Coalesce: true}},
		{"poll", server.Options{Poll: true}},
		{"poll+ooo", server.Options{Poll: true, OOO: true}},
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
				addr, shutdown := start(t, srv)

				errs := make(chan error, conns)
				var wg sync.WaitGroup
				for c := 0; c < conns; c++ {
					_, w, rd := dial(t, addr)
					if m.opts.OOO && hello(t, w, rd, protocol.FlagSeq)&protocol.FlagSeq == 0 {
						t.Fatal("HELLO refused seq framing")
					}
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						if err := driveModel(c, conns, w, rd, m.opts.OOO); err != nil {
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
			})
		}
	}
}

// driveModel runs pipelined windows of SET/DEL/GET on connection c's own
// key stripe (key % conns == c) and checks each reply's status, and each
// GET's value, against a map model. A window names a key at most once,
// so an OOO reply order cannot change any expectation; with seq framing
// the replies are matched to their requests by seq.
func driveModel(c, conns int, w *protocol.Writer, rd *protocol.Reader, seqd bool) error {
	const windows, pipeline, keySpace = 50, 8, 32
	type want struct {
		status protocol.Status
		val    uint64 // GET hits only
		get    bool
	}
	rng := rand.New(rand.NewSource(int64(c) + 1))
	model := map[uint64]uint64{}
	var seq uint32
	for win := 0; win < windows; win++ {
		base := rng.Intn(keySpace)
		wants := make(map[uint32]want, pipeline)
		order := make([]uint32, 0, pipeline)
		for j := 0; j < pipeline; j++ {
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
				if seqd {
					w.SetSeq(seq, key, val)
				} else {
					w.Set(key, val)
				}
			case 1:
				x.status = protocol.StatusNil
				if present {
					x.status = protocol.StatusOK
					delete(model, key)
				}
				if seqd {
					w.DelSeq(seq, key)
				} else {
					w.Del(key)
				}
			default:
				x = want{status: protocol.StatusNil, get: true}
				if present {
					x = want{status: protocol.StatusOK, val: cur, get: true}
				}
				if seqd {
					w.GetSeq(seq, key)
				} else {
					w.Get(key)
				}
			}
			wants[seq] = x
			order = append(order, seq)
			seq++
		}
		if err := w.Flush(); err != nil {
			return err
		}
		for i := 0; i < pipeline; i++ {
			f, err := rd.ReadFrame()
			if err != nil {
				return err
			}
			id, rest := order[i], f.Payload
			if seqd {
				if id, rest, err = protocol.Seq(f.Payload); err != nil {
					return err
				}
			}
			x, ok := wants[id]
			if !ok {
				return fmt.Errorf("reply for unknown or repeated seq %d", id)
			}
			delete(wants, id)
			if got := protocol.Status(f.Code); got != x.status {
				return fmt.Errorf("seq %d: reply %s (payload %q), want %s", id, got, rest, x.status)
			}
			if x.get && x.status == protocol.StatusOK {
				if v, err := protocol.U64(rest); err != nil || v != x.val {
					return fmt.Errorf("seq %d: GET returned %d (%v), want %d", id, v, err, x.val)
				}
			}
		}
	}
	return nil
}
