// serve.go is the client/server executor behind the serving figures
// (21/22, 25, 27) and `hyalinebench -conns`: an in-process server over a
// fresh KV on a loopback listener, driven by closed-loop client
// connections.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hyaline"
	"hyaline/internal/hist"
	"hyaline/internal/metrics"
	"hyaline/internal/protocol"
	"hyaline/internal/server"
)

// runServe measures served throughput for one Config with cfg.Conns > 0:
// cfg.Conns loopback connections each keep cfg.Pipeline requests in
// flight per round trip against a server whose KV leases cfg.Threads
// tids. The returned Result counts client-observed completions; the
// unreclaimed gauge is sampled server-side exactly like the in-process
// harness samples it.
func runServe(cfg Config) (Result, error) {
	// The server's store: cfg.Threads is the total lease bound, divided
	// across cfg.Shards partitions.
	kv, err := hyaline.NewShardedKV(cfg.Structure, cfg.Scheme, cfg.Shards, hyaline.KVOptions{
		MaxThreads: cfg.Threads,
		ArenaCap:   cfg.ArenaCap,
		Tracker:    cfg.Tracker,
	})
	if err != nil {
		return Result{}, err
	}
	prefillKV(kv, cfg.Prefill, cfg.KeyRange)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return Result{}, err
	}
	srv := server.New(kv, server.Options{
		Coalesce: cfg.Coalesce || cfg.OOO,
		Poll:     cfg.Poll,
		OOO:      cfg.OOO,
	})
	go srv.Serve(ln)

	var (
		stop    atomic.Bool
		started sync.WaitGroup
		done    sync.WaitGroup
		release = make(chan struct{})
		counts  = make([]paddedCounter, cfg.Conns)
		hists   = make([]hist.Hist, cfg.Conns)
		errOnce sync.Once
		runErr  error
		failed  = make(chan struct{})
	)
	fail := func(err error) {
		errOnce.Do(func() {
			runErr = err
			close(failed)
		})
		stop.Store(true)
	}
	for i := 0; i < cfg.Conns; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				started.Done()
				fail(err)
				return
			}
			defer c.Close()
			if tc, ok := c.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			rng := rand.New(rand.NewSource(int64(i)*2654435761 + 99))
			w := protocol.NewWriter(c)
			rd := protocol.NewReader(c)
			// The OOO path only arms on seq-framed connections, so the
			// client negotiates FlagSeq; replies then complete in any
			// order and the loop below only counts them.
			if cfg.OOO {
				w.Hello(protocol.FlagSeq)
				if err := w.Flush(); err != nil {
					started.Done()
					fail(err)
					return
				}
				f, err := rd.ReadFrame()
				if err != nil {
					started.Done()
					fail(err)
					return
				}
				if protocol.Status(f.Code) != protocol.StatusOK {
					started.Done()
					fail(fmt.Errorf("HELLO rejected: %s", f.Payload))
					return
				}
			}
			started.Done()
			<-release
			ops := int64(0)
			var seq uint32
			h := &hists[i]
			for !stop.Load() {
				for p := 0; p < cfg.Pipeline; p++ {
					key := uint64(rng.Int63n(int64(cfg.KeyRange)))
					mix := rng.Intn(100)
					switch {
					case mix < cfg.Workload.InsertPct:
						if cfg.OOO {
							w.SetSeq(seq, key, key*31+7)
						} else {
							w.Set(key, key*31+7)
						}
					case mix < cfg.Workload.InsertPct+cfg.Workload.DeletePct:
						if cfg.OOO {
							w.DelSeq(seq, key)
						} else {
							w.Del(key)
						}
					default:
						if cfg.OOO {
							w.GetSeq(seq, key)
						} else {
							w.Get(key)
						}
					}
					seq++
				}
				t0 := time.Now()
				if err := w.Flush(); err != nil {
					fail(err)
					return
				}
				for p := 0; p < cfg.Pipeline; p++ {
					f, err := rd.ReadFrame()
					if err != nil {
						fail(err)
						return
					}
					if protocol.Status(f.Code) == protocol.StatusErr {
						fail(fmt.Errorf("server error reply: %s", f.Payload))
						return
					}
				}
				// One sample per window: flush-to-last-reply round trip,
				// which is what a closed-loop client experiences (and
				// where the coalescing window's latency cost shows up).
				h.Record(time.Since(t0))
				ops += int64(cfg.Pipeline)
			}
			counts[i].v.Store(ops)
		}(i)
	}

	started.Wait()
	start := time.Now()
	close(release)

	var (
		un         unreclaimed
		peakGor    int
		peakSrvGor int64
		peakFDs    int
	)
	// A dead point must not burn the whole window: failed ends it early.
	sampleFor(cfg.Duration, failed, func() {
		un.observe(kv.Stats().Unreclaimed())
		if g := runtime.NumGoroutine(); g > peakGor {
			peakGor = g
		}
		// The server's own goroutine gauge — NumGoroutine above also
		// counts the in-process bench clients, which is exactly the
		// pollution figure 27's per-conn-vs-poller comparison must
		// exclude.
		if g := srv.Goroutines(); g > peakSrvGor {
			peakSrvGor = g
		}
		if n := metrics.OpenFDs(); n > peakFDs {
			peakFDs = n
		}
	})
	stop.Store(true)
	done.Wait()
	elapsed := time.Since(start)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return Result{}, fmt.Errorf("server shutdown: %w", err)
	}
	if runErr != nil {
		return Result{}, runErr
	}
	var ops int64
	for i := range counts {
		ops += counts[i].v.Load()
	}
	var lat hist.Hist
	for i := range hists {
		lat.Merge(&hists[i])
	}
	_, _, _, batches := srv.Counters()
	var regSnap json.RawMessage
	if cfg.Metrics {
		// The registry is the same one /metrics.json would serve; a
		// bench row can therefore carry the full server-side view
		// (latency histograms, batch fill, poll counters) next to the
		// client-observed numbers.
		if b, err := json.Marshal(srv.Metrics()); err == nil {
			regSnap = b
		}
	}
	return Result{
		Structure:         cfg.Structure,
		Scheme:            cfg.Scheme,
		Threads:           cfg.Threads,
		Shards:            cfg.Shards,
		Conns:             cfg.Conns,
		Pipeline:          cfg.Pipeline,
		Coalesce:          cfg.Coalesce || cfg.OOO,
		Poll:              cfg.Poll,
		OOO:               cfg.OOO,
		Workload:          cfg.Workload.Name(),
		Duration:          elapsed,
		Ops:               ops,
		ThroughputMops:    float64(ops) / elapsed.Seconds() / 1e6,
		AvgUnreclaimed:    un.avg(),
		MaxUnreclaimed:    un.max,
		Batches:           batches,
		P50:               lat.Quantile(0.50),
		P99:               lat.Quantile(0.99),
		PeakGoroutines:    peakGor,
		PeakSrvGoroutines: peakSrvGor,
		PeakFDs:           peakFDs,
		FinalStats:        kv.Stats(),
		Metrics:           regSnap,
	}, nil
}

// prefillKV inserts exactly n distinct random keys through the batch
// API (duplicates retry until the count is reached).
func prefillKV(kv *hyaline.KV, n int, keyRange uint64) {
	rng := rand.New(rand.NewSource(12345))
	ops := make([]hyaline.Op, 0, 512)
	inserted := 0
	for inserted < n {
		ops = ops[:0]
		want := n - inserted
		if want > 512 {
			want = 512
		}
		for len(ops) < want {
			key := uint64(rng.Int63n(int64(keyRange)))
			ops = append(ops, hyaline.Op{Kind: hyaline.OpInsert, Key: key, Val: key*31 + 7})
		}
		for _, r := range kv.Apply(ops) {
			if r.OK {
				inserted++
			}
		}
	}
}
