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
// Runs arrive in two flavours:
//
//   - Synchronous (FIFO): the reader parks until the worker has encoded
//     the run's replies — its slice of the merged batch — into the
//     conn's reply buffer, in request order, and signals it; the reader
//     then writes the window as usual. Coalescing changes when a run is
//     applied, never the reply order.
//
//   - Asynchronous (OOO, seq-framed conns under Options.OOO): the
//     reader submits and keeps decoding. Consecutive runs rotate across
//     shards, and each worker encodes and writes its runs' seq-tagged
//     replies the moment its batch lands — so replies from a later run
//     may hit the wire before an earlier run's, which is exactly what
//     FlagSeq licenses. The run holds one of the conn's oooWindow
//     tokens until its replies are written; a worker writing to a stuck
//     peer blocks at most Options.WriteTimeout before the conn is
//     broken and its writes become no-ops.
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

// run is one connection's pending batch of data commands as the
// coalescer sees it. Synchronous runs borrow the conn's own batch and
// seqs (the reader is parked, so they are stable); async runs own
// copies, pooled per coalescer.
type run struct {
	cn   *conn
	sync bool
	// t0 is the owning window's decode timestamp, carried so the shard
	// worker that writes an async run's replies can charge the
	// decode→reply-flushed latency histogram.
	t0   time.Time
	b    batch
	seqs []uint32
}

// coalescer fans decoded runs from all connections into per-shard apply
// workers. A worker owns its flat batch buffers, so the apply path
// allocates nothing in steady state.
type coalescer struct {
	srv      *Server
	window   time.Duration
	maxBatch int
	shards   []coShard
	runs     sync.Pool // *run, async only: each owns a batch of this server's family
	next     atomic.Uint32
	stop     chan struct{}
	wg       sync.WaitGroup
	once     sync.Once
}

type coShard struct {
	ch chan *run
	// Pad so two shards' queues do not share a cache line under the
	// submit fan-in.
	_ [56]byte
}

func defaultCoalesceShards() int {
	n := runtime.GOMAXPROCS(0) / 2
	if n < 1 {
		n = 1
	}
	if n > 4 {
		n = 4
	}
	return n
}

func newCoalescer(s *Server, opts Options) *coalescer {
	window := opts.CoalesceWindow
	if window == 0 {
		window = DefaultCoalesceWindow
	}
	if window < 0 {
		window = 0 // merge only what is already queued; never wait
	}
	shards := opts.CoalesceShards
	if shards <= 0 {
		shards = defaultCoalesceShards()
	}
	co := &coalescer{
		srv:      s,
		window:   window,
		maxBatch: s.maxPipeline,
		shards:   make([]coShard, shards),
		stop:     make(chan struct{}),
	}
	for i := range co.shards {
		co.shards[i].ch = make(chan *run, coQueue)
		co.wg.Add(1)
		s.m.goroutines.Inc()
		go co.run(&co.shards[i])
	}
	return co
}

// assign picks a shard round-robin. Connections take one at accept for
// their synchronous runs (spreading singleton clients so each shard
// sees enough concurrent runs to merge); async submissions call it per
// run, which is what lets consecutive runs of one connection complete
// out of order.
func (co *coalescer) assign() *coShard {
	return &co.shards[int(co.next.Add(1)-1)%len(co.shards)]
}

// apply submits cn's pending run synchronously and blocks until the
// worker has encoded its replies into cn.buf. The reader owns the run's
// memory throughout — it is parked here, not reading — so bytes ops may
// keep aliasing the reader's network buffer.
func (co *coalescer) apply(cn *conn) {
	cn.frun.seqs = cn.seqs
	cn.shard.ch <- &cn.frun
	<-cn.applied
}

// newRun takes an async run from the pool.
func (co *coalescer) newRun() *run {
	if r, ok := co.runs.Get().(*run); ok {
		return r
	}
	return &run{b: co.srv.newBatch()}
}

// submit hands an async run to a rotating shard; the worker that
// applies it writes its replies and releases its token.
func (co *coalescer) submit(r *run) {
	co.assign().ch <- r
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
// scatter — each run's slice of the results is encoded for its
// connection: into the parked reader's reply buffer for synchronous
// runs, straight onto the wire for async ones. The worker owns its
// merged batch, so the apply path allocates nothing in steady state.
func (co *coalescer) run(sh *coShard) {
	defer co.wg.Done()
	defer co.srv.m.goroutines.Dec()
	var pending []*run
	wb := co.srv.newBatch()
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		var first *run
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
				case r := <-sh.ch:
					pending = append(pending, r)
					total += r.b.len()
				case <-timer.C:
					break collect
				}
			}
			timer.Stop()
		default:
			// No latency budget: merge whatever is already queued.
			for total < co.maxBatch {
				select {
				case r := <-sh.ch:
					pending = append(pending, r)
					total += r.b.len()
				default:
					total = co.maxBatch
				}
			}
		}

		wb.reset()
		for _, r := range pending {
			wb.merge(r.b)
		}
		wb.apply()
		co.srv.m.batches.Inc()
		co.srv.m.batchOps.ObserveSize(wb.len())
		co.srv.m.coalesceRuns.ObserveSize(len(pending))
		off := 0
		for _, r := range pending {
			n := r.b.len()
			if r.sync {
				r.cn.buf = wb.encode(r.cn.buf, off, n, r.seqs)
				r.cn.applied <- struct{}{}
			} else {
				co.deliver(r, wb, off, n)
			}
			off += n
		}
	}
}

// deliver encodes and writes an async run's replies — this shard batch
// landed, so its slice of the results goes straight to the wire,
// seq-tagged, without waiting for any other run of the window. The
// conn's token is released only after the write: the oooBarrier
// contract is "no tokens outstanding" == "every reply written".
func (co *coalescer) deliver(r *run, wb batch, off, n int) {
	bp := bufPool.Get().(*[]byte)
	buf := wb.encode((*bp)[:0], off, n, r.seqs)
	co.srv.m.served.Add(uint64(n))
	cn := r.cn
	cn.write(buf)
	co.srv.m.opLatency.ObserveN(time.Since(r.t0), int64(n))
	*bp = buf[:0]
	bufPool.Put(bp)
	// Back to the pool with the conn pointer dropped, so a pooled run
	// can never resurrect a dead connection.
	r.cn = nil
	co.runs.Put(r)
	<-cn.tokens
}
