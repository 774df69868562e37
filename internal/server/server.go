// Package server is the network front-end of the hyaline store: a TCP
// listener speaking the internal/protocol frame format over one
// hyaline.KV (uint64 keys, GET/SET/DEL) or one hyaline.KVBytes ([]byte
// keys, GETB/SETB/DELB), sharded or not. Each connection is decoded by
// one reader goroutine that batches data commands and writes their
// encoded replies itself, in request order. The serving pipeline is the
// same for both key families; what differs — op decoding, the store
// call, value encoding — lives behind the batch type (batch.go).
//
// The performance move is pipelining: a client that keeps several
// requests in flight has its whole burst sitting in the reader's buffer
// after one syscall, and the reader coalesces the contiguous run of data
// commands (GET/SET/DEL, up to Options.MaxPipeline of them) into a
// single kv.Apply batch — one session lease and one Enter/Leave bracket
// serve the entire pipeline window. A singleton client pays the full
// per-op bracket; a pipelined one amortizes it across the window, which
// is the client/server replay of the paper's batching argument.
//
// Brackets are never shared across connections: each reader applies
// its own run. A singleton client's lease and bracket cost tens of
// nanoseconds against a round trip of microseconds, so merging runs
// from many connections had little to win (CHANGES.md keeps the
// measurement).
//
// A connection holds its reader goroutine only while it has work. A
// reader that waits out its linger for a frame parks the connection's
// file descriptor in an OS readiness poller (epoll on Linux; see
// poll*.go) and exits, and the poller starts a fresh reader when the
// descriptor turns readable. N idle connections cost one server
// goroutine instead of N; a busy one keeps its reader. On other
// platforms, and for a connection that exposes no descriptor, the
// reader never parks.
package server

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hyaline"
	"hyaline/internal/metrics"
	"hyaline/internal/protocol"
)

// DefaultMaxPipeline is how many data commands one kv.Apply batch may
// coalesce. It matches session.BatchChunk so a full pipeline window is
// exactly one bracket with no mid-batch trim.
const DefaultMaxPipeline = 64

// DefaultWriteTimeout bounds each reply Write. A healthy client drains
// its socket in microseconds; a peer that has stopped reading leaves the
// write blocked until the OS buffer fills and then forever, so a few
// seconds cleanly separates "slow" from "gone".
const DefaultWriteTimeout = 5 * time.Second

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("server: closed")

// Options tunes a Server. The zero value is production-shaped.
type Options struct {
	// MaxPipeline caps how many pipelined data commands are coalesced
	// into one kv.Apply batch. Default DefaultMaxPipeline; min 1.
	MaxPipeline int
	// WriteTimeout bounds each reply Write; on expiry the connection is
	// treated as broken (closed, drained, logged). Default
	// DefaultWriteTimeout; negative disables the deadline.
	WriteTimeout time.Duration
	// MaxConns caps concurrently open connections; an accept beyond the
	// cap is closed immediately (counted by Rejected). 0 = unlimited.
	MaxConns int
	// Metrics is the registry the server publishes its instruments to
	// (see metrics.go for the families). Nil means a private registry,
	// still readable via Server.Metrics(). Two servers must not share
	// one registry — the series names would collide.
	Metrics *metrics.Registry
	// Logf, when non-nil, receives connection-level diagnostics (accept
	// and write errors). Protocol errors are reported to the offending
	// client, not logged.
	Logf func(format string, args ...any)
}

// Store is the uint64 surface a server needs from its backing map:
// the batched apply (every data run funnels through it) plus the
// gauges STATS/LEN report. *hyaline.KV satisfies it at any shard count
// — a sharded store splits each batch into per-shard runs internally,
// so shard routing costs the server nothing.
type Store interface {
	ApplyInto(dst []hyaline.Result, ops []hyaline.Op) []hyaline.Result
	Len() int
	Snapshot() hyaline.Snapshot
}

// BytesStore is the bytes-family counterpart of Store, satisfied by
// *hyaline.KVBytes.
type BytesStore interface {
	ApplyBytesInto(dst []hyaline.BytesResult, buf []byte, ops []hyaline.BytesOp) ([]hyaline.BytesResult, []byte)
	Len() int
	Snapshot() hyaline.Snapshot
}

// Server serves one Store — or one BytesStore — over TCP: either the
// uint64 data ops (GET/SET/DEL) or the bytes ops (GETB/SETB/DELB), plus
// the meta commands in both. A data op of the other family is a
// protocol error, like any other malformed request.
type Server struct {
	store        gauges       // what LEN/STATS and the storage metrics read
	newBatch     func() batch // the store's key family (see batch.go)
	maxPipeline  int
	maxConns     int
	writeTimeout time.Duration
	logf         func(string, ...any)

	mu    sync.Mutex
	ln    net.Listener
	po    *poller // started by the first Serve; nil without a backend
	conns map[net.Conn]struct{}
	// draining is set once, under mu, by Shutdown; readers load it
	// without the lock.
	draining atomic.Bool

	wg sync.WaitGroup // one unit per live connection
	m  *srvMetrics    // every server gauge/counter/histogram (metrics.go)
}

// gauges is the store surface both families share.
type gauges interface {
	Len() int
	Snapshot() hyaline.Snapshot
}

// New builds a server over kv (a *hyaline.KV, sharded or not). The
// store stays owned by the caller: it is shared with any in-process
// users and is not closed by Shutdown.
func New(kv Store, opts Options) *Server {
	return newServer(opts, kv, func() batch { return &u64Batch{kv: kv} })
}

// NewBytes builds a server over a bytes KV: it serves GETB/SETB/DELB
// instead of the uint64 data ops, with the same pipelining, batching
// and drain behaviour.
func NewBytes(kv BytesStore, opts Options) *Server {
	return newServer(opts, kv, func() batch { return &bytesBatch{kv: kv} })
}

func newServer(opts Options, store gauges, newBatch func() batch) *Server {
	if opts.MaxPipeline <= 0 {
		opts.MaxPipeline = DefaultMaxPipeline
	}
	wt := opts.WriteTimeout
	if wt == 0 {
		wt = DefaultWriteTimeout
	}
	if wt < 0 {
		wt = 0 // disabled
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Server{
		store:        store,
		newBatch:     newBatch,
		maxPipeline:  opts.MaxPipeline,
		maxConns:     opts.MaxConns,
		writeTimeout: wt,
		logf:         logf,
		conns:        map[net.Conn]struct{}{},
		m:            newSrvMetrics(opts.Metrics),
	}
	s.registerStoreMetrics()
	s.registerConnMetrics()
	return s
}

// Serve accepts connections on ln until Shutdown (returning
// ErrServerClosed) or a fatal accept error. Transient accept failures —
// EMFILE/ENFILE under descriptor pressure, ECONNABORTED/ECONNRESET
// races, temporary network errors — are retried with exponential
// backoff (5ms doubling to 1s, the net/http pattern) instead of killing
// the server. The listener is closed when Serve returns.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	if s.po == nil {
		p, err := newPoller(s)
		if err != nil && !errors.Is(err, errPollUnsupported) {
			s.logf("server: readiness poller unavailable (%v); idle connections keep their readers", err)
		}
		s.po = p
	}
	s.mu.Unlock()
	defer ln.Close()
	var backoff time.Duration
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.draining.Load() || errors.Is(err, net.ErrClosed) {
				return ErrServerClosed
			}
			if isTransientAccept(err) {
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				s.m.acceptRetry.Inc()
				s.logf("server: accept: %v; retrying in %v", err, backoff)
				// Shutdown closes the listener, so the sleep only defers
				// the ErrClosed exit by at most one backoff step.
				time.Sleep(backoff)
				continue
			}
			return err
		}
		backoff = 0
		s.m.accepted.Inc()
		if !s.track(c) {
			c.Close() // draining, or over MaxConns
			continue
		}
		s.startConn(c)
	}
}

// isTransientAccept classifies accept errors worth retrying: descriptor
// exhaustion, the client aborting between SYN and accept, and anything
// the net package itself flags as temporary or a timeout.
func isTransientAccept(err error) bool {
	switch {
	case errors.Is(err, syscall.EMFILE), errors.Is(err, syscall.ENFILE),
		errors.Is(err, syscall.ECONNABORTED), errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.EINTR):
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && (ne.Timeout() || ne.Temporary()) { //nolint:staticcheck // the net/http accept-retry contract
		return true
	}
	return false
}

// startConn gives a tracked connection its first reader.
func (s *Server) startConn(c net.Conn) { s.spawn(newConn(s, c), false) }

// spawn starts a reader goroutine for cn; woken says the poller found
// it readable after it parked.
func (s *Server) spawn(cn *conn, woken bool) {
	s.m.goroutines.Inc()
	go func() {
		defer s.m.goroutines.Dec()
		cn.run(woken)
	}()
}

// Shutdown gracefully stops the server: the listener closes, every
// connection finishes the pipeline window it is processing (its batch
// bracket completes and its replies are written), idle connections are
// released from their blocking read or swept out of the poller, and the
// poller's loop exits. When ctx expires first, the remaining connections
// are closed forcibly. The KV is untouched — the caller owns its
// lifecycle (and can assert kv.InFlight() == 0 once Shutdown returns).
// Shutdown may be called again, concurrently or after it returned: every
// call waits for the same drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining.Store(true)
	ln := s.ln
	po := s.po
	snapshot := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		snapshot = append(snapshot, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	// A deadline in the past fails the *next* blocking read; a reader
	// mid-window is unaffected and finishes its batch first. A reader
	// that sets its linger deadline re-checks draining afterwards, so
	// it cannot overwrite this one unseen.
	now := time.Now()
	for _, c := range snapshot {
		c.SetReadDeadline(now)
	}
	done := make(chan struct{})
	go func() {
		if po != nil {
			// Every parked conn is torn down, releasing its s.wg unit;
			// the readers finish on their own.
			po.drain()
		}
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Counters returns the server's gauges: connections accepted since
// start, currently open connections, frames answered, and kv.Apply
// batches issued.
func (s *Server) Counters() (accepted, active, served, batches int64) {
	s.mu.Lock()
	active = int64(len(s.conns))
	s.mu.Unlock()
	return int64(s.m.accepted.Value()), active,
		int64(s.m.served.Value()), int64(s.m.batches.Value())
}

// track registers a live connection; during drain — or beyond
// Options.MaxConns — it refuses (and the late conn is closed unserved)
// so Shutdown's snapshot stays complete and the cap holds. The wg.Add
// happens inside the critical section: Shutdown sets draining under the
// same mutex before it calls wg.Wait, so every accepted connection is
// either counted by that Wait or refused here — an Add can never race
// the Wait.
func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return false
	}
	if s.maxConns > 0 && len(s.conns) >= s.maxConns {
		s.m.rejected.Inc()
		return false
	}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// appendStats encodes the STATS reply: the KV snapshot plus server
// gauges.
func (s *Server) appendStats(b []byte) []byte {
	snap := s.store.Snapshot()
	accepted, active, served, _ := s.Counters()
	return protocol.AppendStatsReply(b, protocol.Stats{
		Structure:   snap.Structure,
		Scheme:      snap.Scheme,
		MaxThreads:  uint64(snap.MaxThreads),
		Shards:      uint64(snap.Shards),
		Conns:       uint64(active),
		TotalConns:  uint64(accepted),
		Ops:         uint64(served),
		Len:         uint64(snap.Len),
		Live:        uint64(snap.Live),
		Allocated:   uint64(snap.Stats.Allocated),
		Retired:     uint64(snap.Stats.Retired),
		Freed:       uint64(snap.Stats.Freed),
		Scans:       uint64(snap.Stats.Scans),
		Goroutines:  uint64(s.m.goroutines.Value()),
		Rejected:    s.m.rejected.Value(),
		ActiveConns: uint64(s.ActiveConns()),
	})
}

// bufPool recycles the reply buffer a connection holds while it answers
// a window.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

// readerPool recycles the frame decoder a connection drops when it
// parks with nothing buffered, and when it closes.
var readerPool = sync.Pool{New: func() any { return protocol.NewReader(nil) }}

// conn is one connection's state, owned by its reader goroutine while
// it has one and by the poller while it is parked (see poll.go).
type conn struct {
	srv *Server
	c   net.Conn
	cr  countingReader // c, counted into bytesIn
	// rd decodes frames from cr. A conn that parks with nothing
	// buffered gives it back to readerPool, so an idle conn holds none.
	rd *protocol.Reader

	b batch // pending data commands of the current run (and their results)

	// The reply buffer, from bufPool, is held only while a window (or
	// readFailed's ERR) is being answered: an idle conn holds none.
	bp  *[]byte // nil when not held
	buf []byte  // alias of *bp being appended to

	// The reader is the conn's only writer. A failed or timed-out write
	// marks the conn broken and closes it; later writes are dropped (the
	// peer is gone either way).
	broken bool

	// fd is the conn's descriptor, or -1 when it cannot park (no
	// poller, or no descriptor). added: fd is in the poller's set.
	fd    int
	added bool
	// busy is set by the reader after a window of a conn the poller's
	// sweep watches; the sweep clears it (see poll.go).
	busy atomic.Bool

	// Window latency bookkeeping: wstart is stamped when the window's
	// first frame is decoded, wops counts the replies produced in this
	// window. The decode→reply-flushed histogram observes wops samples
	// of the window's elapsed time once its replies are on the wire.
	wstart time.Time
	wops   int64

	fatal bool // protocol error: an ERR reply is queued, close after flushing
}

func newConn(s *Server, c net.Conn) *conn {
	if tc, ok := c.(*net.TCPConn); ok {
		// Replies are complete windows; coalescing them behind Nagle
		// would serialize every pipelined client on the ACK clock.
		tc.SetNoDelay(true)
	}
	cn := &conn{
		srv: s,
		c:   c,
		cr:  countingReader{src: c, n: s.m.bytesIn},
		b:   s.newBatch(),
		fd:  -1,
	}
	cn.takeReader()
	if s.po != nil {
		if fd, ok := connFD(c); ok {
			cn.fd = fd
		}
	}
	return cn
}

// takeReader gives the conn a decoder from readerPool.
func (cn *conn) takeReader() {
	cn.rd = readerPool.Get().(*protocol.Reader)
	cn.rd.Reset(&cn.cr)
}

// run is the conn's reader: decode one pipeline window at a time, apply
// its data commands in batches, write the replies, repeat until the
// peer goes away or the server drains — or, for a conn that can park,
// until no window has begun for a linger, when the conn parks and run
// returns without tearing it down. woken says the poller started this
// reader.
//
// The read deadline is not moved per window. It stays idleLinger after
// the window that was last when it was set, and when it fires on a conn
// whose latest window began less than idleLinger ago, it is moved to
// idleLinger after that window and the read resumes. When it finds the
// conn busy a second time, the reader drops it and has the poller's
// sweep watch the conn (poll.go): a busy conn reads with no deadline.
func (cn *conn) run(woken bool) {
	if cn.rd == nil {
		cn.takeReader()
	}
	// spurious: the poller woke this reader and no frame has come yet.
	// busyFires: how often the deadline has found the conn busy.
	// watched: the sweep, not a deadline, watches the conn.
	last, spurious, busyFires, watched := time.Now(), woken, 0, false
	if cn.fd >= 0 {
		cn.c.SetReadDeadline(last.Add(idleLinger))
	}
	for !cn.fatal {
		// Checked after every deadline set: Shutdown's past deadline may
		// just have been overwritten.
		if cn.srv.draining.Load() {
			break
		}
		// Block for the first frame of a window; everything else the
		// client pipelined behind it is already buffered and consumed
		// without further syscalls.
		f, err := cn.rd.ReadFrame()
		if err != nil {
			if cn.fd >= 0 && isTimeout(err) && !cn.srv.draining.Load() {
				// The stream is still well-framed: bytes of a partial
				// frame stay buffered.
				cn.rd.ClearError()
				if watched {
					// The sweep's kick; a window may have raced it.
					cn.c.SetReadDeadline(time.Time{})
					if cn.busy.Load() {
						continue
					}
				} else if time.Since(last) < idleLinger {
					if busyFires++; busyFires < 2 {
						cn.c.SetReadDeadline(last.Add(idleLinger))
					} else {
						cn.c.SetReadDeadline(time.Time{})
						watched = cn.srv.po.watch(cn)
					}
					continue
				}
				if spurious {
					cn.srv.m.pollSpurious.Inc()
				}
				err := cn.park()
				if err == nil {
					return
				}
				if !errors.Is(err, errPollerStopped) {
					// The descriptor could not be armed (ENOSPC from
					// fs.epoll.max_user_watches, say): the conn keeps
					// its reader and stops trying to park.
					cn.srv.logf("server: cannot park %s: %v; it keeps its reader", cn.c.RemoteAddr(), err)
					cn.fd = -1
					cn.c.SetReadDeadline(time.Time{})
					if watched {
						cn.srv.po.unwatch(cn)
						watched = false
					}
					continue
				}
			} else {
				cn.readFailed(err)
			}
			break
		}
		cn.window(f)
		last, spurious = cn.wstart, false
		if watched && !cn.busy.Load() {
			cn.busy.Store(true)
		}
	}
	if watched {
		cn.srv.po.unwatch(cn)
	}
	cn.teardown()
}

// park hands the idle conn to the poller. A conn with part of a frame
// buffered keeps its Reader; with nothing buffered the Reader goes back
// to readerPool. On an error the poller refused: the caller still owns
// the conn, which has its Reader back.
func (cn *conn) park() error {
	if cn.rd.Buffered() == 0 {
		readerPool.Put(cn.rd)
		cn.rd = nil
	}
	var err error
	if parkHook != nil {
		err = parkHook()
	}
	if err == nil {
		err = cn.srv.po.park(cn)
	}
	if err != nil && cn.rd == nil {
		cn.takeReader()
	}
	return err
}

// readFailed ends a connection whose blocking ReadFrame failed. EOF, a
// drain deadline or a network error just close; a framing violation is
// answered with ERR first, exactly like one found mid-window by
// TryReadFrame — the reply must not depend on whether the junk shared a
// TCP segment with the frames before it.
func (cn *conn) readFailed(err error) {
	if errors.Is(err, protocol.ErrFraming) {
		cn.holdBuf()
		cn.protoErr(err)
		cn.send()
		cn.releaseBuf()
	}
}

// window handles one pipeline window starting at its first frame:
// every further frame already buffered is consumed, the pending run is
// flushed and the window's replies are written.
func (cn *conn) window(f protocol.Frame) {
	cn.wstart = time.Now()
	cn.holdBuf()
	cn.frame(f)
	for !cn.fatal {
		f, ok, err := cn.rd.TryReadFrame()
		if err != nil {
			cn.protoErr(err)
			break
		}
		if !ok {
			break
		}
		cn.frame(f)
	}
	cn.flushOps()
	cn.send()
	cn.releaseBuf()
	if cn.wops > 0 {
		// One elapsed-time sample per reply answered in this window:
		// every op decoded at wstart waited for the whole window's
		// flush, so the window's elapsed time is each op's latency.
		cn.srv.m.opLatency.ObserveN(time.Since(cn.wstart), cn.wops)
		cn.wops = 0
	}
}

// teardown retires the connection; its owner calls it exactly once.
// The socket closes and the server's books are settled.
func (cn *conn) teardown() {
	cn.c.Close()
	if cn.rd != nil {
		readerPool.Put(cn.rd)
		cn.rd = nil
	}
	cn.srv.untrack(cn.c)
	cn.srv.wg.Done()
}

// holdBuf takes a reply buffer for the window about to be answered;
// every append to cn.buf happens between holdBuf and releaseBuf, which
// window and readFailed pair within themselves, so no buffer is held
// between windows or at teardown.
func (cn *conn) holdBuf() {
	cn.bp = bufPool.Get().(*[]byte)
	cn.buf = (*cn.bp)[:0]
}

// releaseBuf gives the reply buffer back to bufPool.
func (cn *conn) releaseBuf() {
	*cn.bp = cn.buf[:0]
	bufPool.Put(cn.bp)
	cn.bp, cn.buf = nil, nil
}

// write ships one encoded reply buffer to the peer. On error or
// deadline expiry the conn is marked broken and closed, and later
// writes are dropped.
func (cn *conn) write(buf []byte) {
	if len(buf) == 0 || cn.broken {
		return
	}
	// A deadline per Write, not per connection: a client may idle
	// forever between windows, but once replies are in hand a peer that
	// will not drain its socket is indistinguishable from a dead one.
	if wt := cn.srv.writeTimeout; wt > 0 {
		cn.c.SetWriteDeadline(time.Now().Add(wt))
	}
	n, err := cn.c.Write(buf)
	cn.srv.m.bytesOut.Add(uint64(n))
	if err != nil {
		cn.broken = true
		cn.srv.logf("server: write to %s: %v", cn.c.RemoteAddr(), err)
		cn.c.Close()
	}
}

// served counts frames answered on this connection: the server-wide
// ops counter plus the window's latency weight.
func (cn *conn) served(n int64) {
	cn.srv.m.served.Add(uint64(n))
	cn.wops += n
}

// countingReader counts request bytes as the protocol Reader pulls
// them off the socket.
type countingReader struct {
	src io.Reader
	n   *metrics.Counter
}

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := r.src.Read(p)
	r.n.Add(uint64(n))
	return n, err
}

// frame handles one decoded request frame. Data commands accumulate into
// the pending Apply run; meta commands (PING/LEN/STATS) flush the run
// first, so their replies keep their place in request order, then
// answer inline while the frame payload is still valid.
func (cn *conn) frame(f protocol.Frame) {
	op := protocol.Op(f.Code)
	if err := protocol.ValidateRequest(op, f.Payload); err != nil {
		cn.protoErr(err)
		return
	}
	if op.IsData() {
		if err := cn.b.push(op, f.Payload); err != nil {
			cn.protoErr(err)
			return
		}
		if cn.b.len() >= cn.srv.maxPipeline {
			cn.flushOps()
		}
		return
	}
	cn.flushOps()
	switch op {
	case protocol.OpPing:
		cn.buf = protocol.AppendPingReply(cn.buf, f.Payload)
	case protocol.OpLen:
		cn.buf = protocol.AppendValue(cn.buf, uint64(cn.srv.store.Len()))
	case protocol.OpStats:
		cn.buf = cn.srv.appendStats(cn.buf)
	}
	cn.served(1)
}

// flushOps applies the pending run — one session lease, one Enter/Leave
// bracket per shard touched — and encodes its replies into cn.buf in
// request order.
func (cn *conn) flushOps() {
	n := cn.b.len()
	if n == 0 {
		return
	}
	cn.b.apply()
	cn.srv.m.batches.Inc()
	cn.srv.m.batchOps.ObserveSize(n)
	cn.buf = cn.b.encode(cn.buf)
	cn.served(int64(n))
	cn.b.reset()
}

// protoErr flushes what came before the malformed frame (those requests
// were well-formed and deserve their replies, written before the ERR),
// queues an ERR reply, and marks the connection for close — after a
// framing violation there is no trustworthy boundary to resume parsing
// from.
func (cn *conn) protoErr(err error) {
	cn.flushOps()
	cn.buf = protocol.AppendErr(cn.buf, err.Error())
	cn.fatal = true
}

// send writes the window's accumulated replies and resets the buffer.
func (cn *conn) send() {
	if len(cn.buf) == 0 {
		return
	}
	cn.write(cn.buf)
	cn.buf = cn.buf[:0]
}
