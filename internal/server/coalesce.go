// coalesce.go is the cross-connection apply coalescer: instead of each
// reader issuing its own kv.Apply, readers submit their decoded runs to
// a small set of sharded apply workers that merge runs from many
// connections into one batch under a latency budget. One session lease
// and one Enter/Leave bracket then serve requests from dozens of
// connections — the batching amortization that per-connection
// pipelining only buys from clients that pipeline, extended to fleets
// of singleton clients.
//
// A batch ships as soon as it holds Options.MaxPipeline operations, or
// when Options.CoalesceWindow expires with the batch non-empty.
//
// The submitting reader parks until the worker has encoded the run's
// replies — its slice of the merged batch — into the conn's reply
// buffer, in request order, and signals it; the reader then writes the
// window as usual. Coalescing changes when a run is applied, never the
// reply order, and never who writes to the socket.
package server

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// coQueue is each shard's submission queue depth. Submitting readers
// block when it fills: backpressure toward the sockets, exactly like a
// busy KV would exert, never an unbounded queue.
const coQueue = 256

// coalescer fans decoded runs from all connections into per-shard apply
// workers. A worker owns its flat batch buffers, so the apply path
// allocates nothing in steady state.
type coalescer struct {
	srv      *Server
	window   time.Duration
	maxBatch int
	shards   []coShard
	next     atomic.Uint32
	stop     chan struct{}
	wg       sync.WaitGroup
	once     sync.Once
}

type coShard struct {
	ch chan *conn // conns whose reader is parked on applied, run pending
	// Pad so two shards' queues do not share a cache line under the
	// submit fan-in.
	_ [56]byte
}

func newCoalescer(s *Server, opts Options) *coalescer {
	window := opts.CoalesceWindow
	if window == 0 {
		window = DefaultCoalesceWindow
	}
	if window < 0 {
		window = 0 // merge only what is already queued; never wait
	}
	// One apply worker per two Ps, at least one and at most four.
	shards := min(max(runtime.GOMAXPROCS(0)/2, 1), 4)
	co := &coalescer{
		srv:      s,
		window:   window,
		maxBatch: s.maxPipeline,
		shards:   make([]coShard, shards),
		stop:     make(chan struct{}),
	}
	for i := range co.shards {
		co.shards[i].ch = make(chan *conn, coQueue)
		co.wg.Add(1)
		s.m.goroutines.Inc()
		go co.run(&co.shards[i])
	}
	return co
}

// assign picks a shard round-robin. Connections take one at accept
// (spreading singleton clients so each shard sees enough concurrent
// runs to merge) and submit every run to it.
func (co *coalescer) assign() *coShard {
	return &co.shards[int(co.next.Add(1)-1)%len(co.shards)]
}

// apply submits cn's pending run (cn.b) and blocks until the worker has
// encoded its replies into cn.buf. The run stays the reader's memory
// throughout — it is parked here, not reading — so bytes ops may keep
// aliasing the reader's network buffer.
func (co *coalescer) apply(cn *conn) {
	cn.shard.ch <- cn
	<-cn.applied
}

// shutdown stops the workers and waits for them to exit. Callers must
// guarantee no reader can submit anymore (the Server calls this only
// after every connection has finished).
func (co *coalescer) shutdown() {
	co.once.Do(func() { close(co.stop) })
	co.wg.Wait()
}

// run is one shard's apply worker: block for the first run, collect
// more until the batch fills or the window expires, apply once, then
// scatter — each run's slice of the results is encoded into its parked
// reader's reply buffer. The worker owns its merged batch, so the apply
// path allocates nothing in steady state.
func (co *coalescer) run(sh *coShard) {
	defer co.wg.Done()
	defer co.srv.m.goroutines.Dec()
	var pending []*conn
	wb := co.srv.newBatch()
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		var first *conn
		select {
		case first = <-sh.ch:
		case <-co.stop:
			return
		}
		pending = append(pending[:0], first)
		total := first.b.len()
		switch {
		case total >= co.maxBatch:
			// The first run alone fills the batch; ship immediately.
		case co.window > 0:
			timer.Reset(co.window)
		collect:
			for total < co.maxBatch {
				select {
				case cn := <-sh.ch:
					pending = append(pending, cn)
					total += cn.b.len()
				case <-timer.C:
					break collect
				}
			}
			timer.Stop()
		default:
			// No latency budget: merge whatever is already queued.
			for total < co.maxBatch {
				select {
				case cn := <-sh.ch:
					pending = append(pending, cn)
					total += cn.b.len()
				default:
					total = co.maxBatch
				}
			}
		}

		wb.reset()
		for _, cn := range pending {
			wb.merge(cn.b)
		}
		wb.apply()
		co.srv.m.batches.Inc()
		co.srv.m.batchOps.ObserveSize(wb.len())
		co.srv.m.coalesceRuns.ObserveSize(len(pending))
		off := 0
		for _, cn := range pending {
			n := cn.b.len()
			cn.buf = wb.encode(cn.buf, off, n)
			cn.applied <- struct{}{}
			off += n
		}
	}
}
