package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names a span. Every span but request has the request in
// flight on its connection as its parent.
type spanKind uint8

const (
	spRequest         spanKind = iota // one client window: encode start to last reply decoded
	spClientEncode                    // building the window's request frames
	spClientSockWrite                 // the client's flush
	spClientDecode                    // reading replies, minus the time blocked in the socket
	spServerApply                     // one ApplyInto/ApplyBytesInto call on the store
	spServerSockRead                  // one Read on the server's conn: a count, read time is idle wait
	spServerSockWrite                 // one Write on the server's conn
	spOpGet                           // in-process workloads: one sampled call
	spOpInsert
	spOpDelete
	spOpRange
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"request", "client.encode", "client.sock_write", "client.decode",
	"server.apply", "server.sock_read", "server.sock_write",
	"op.get", "op.insert", "op.delete", "op.range",
}

// span is one record of the ring. n is what the span handled: ops for
// request, apply and op.range (keys), bytes for the socket spans.
type span struct {
	kind   spanKind
	conn   uint8
	window uint32
	start  int64 // ns since the tracer's base
	end    int64
	n      int64
}

type spanTotal struct{ ns, count, n int64 }

// tracer records spans from the benchmark's side of each layer boundary.
// Totals cover every span of the timed window; the preallocated ring
// keeps the most recent ones for the span file. A mutex is enough: the
// traced workloads have two or three goroutines.
type tracer struct {
	workload string
	base     time.Time
	on       atomic.Bool // off during warm-up

	mu     sync.Mutex
	ring   []span
	next   int
	totals [numSpanKinds]spanTotal

	window [numClients]atomic.Uint32 // the request in flight per connection
	addrs  map[string]int            // client local address -> connection index, under mu
}

const traceRing = 1 << 16

func newTracer(workload string) *tracer {
	return &tracer{
		workload: workload,
		base:     time.Now(),
		ring:     make([]span, traceRing),
		addrs:    map[string]int{},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.base)) }

func (t *tracer) record(kind spanKind, conn int, start, end, n int64) {
	if !t.on.Load() {
		return
	}
	s := span{kind: kind, conn: uint8(conn), window: t.window[conn].Load(), start: start, end: end, n: n}
	t.mu.Lock()
	t.ring[t.next%len(t.ring)] = s
	t.next++
	tot := &t.totals[kind]
	tot.ns += end - start
	tot.count++
	tot.n += n
	t.mu.Unlock()
}

func (t *tracer) total(kind spanKind) spanTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totals[kind]
}

func (t *tracer) registerClient(c net.Conn, idx int) {
	t.mu.Lock()
	t.addrs[c.LocalAddr().String()] = idx
	t.mu.Unlock()
}

func (t *tracer) connIndex(remote net.Addr) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addrs[remote.String()]
}

// writeSpans writes the ring, oldest first, as one JSON document.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	first, n := 0, t.next
	if n > len(t.ring) {
		first, n = t.next-len(t.ring), len(t.ring)
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"recorded\":%d,\"kept\":%d,\"spans\":[\n", t.workload, t.next, n)
	for i := 0; i < n; i++ {
		s := t.ring[(first+i)%len(t.ring)]
		sep := ","
		if i == n-1 {
			sep = ""
		}
		// A request's id is its connection and window; that is also the
		// parent of every other span with the same pair.
		link := "parent"
		if s.kind == spRequest {
			link = "id"
		}
		fmt.Fprintf(w, "{\"name\":%q,\"workload\":%q,%q:\"c%d.w%d\",\"conn\":%d,\"window\":%d,\"start_ns\":%d,\"end_ns\":%d,\"n\":%d}%s\n",
			spanNames[s.kind], t.workload, link, s.conn, s.window, s.conn, s.window, s.start, s.end, s.n, sep)
	}
	t.mu.Unlock()
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedListener decorates the net.Listener given to Serve: the public
// seam on the server's socket side.
type tracedListener struct {
	net.Listener
	t *tracer
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, t: l.t, idx: -1}, nil
}

type tracedConn struct {
	net.Conn
	t   *tracer
	idx int // resolved on first use: the client has registered by then
}

func (c *tracedConn) index() int {
	if c.idx < 0 {
		c.idx = c.t.connIndex(c.RemoteAddr())
	}
	return c.idx
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := c.t.now()
		c.t.record(spServerSockRead, c.index(), now, now, int64(n))
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := c.t.now()
	n, err := c.Conn.Write(p)
	c.t.record(spServerSockWrite, c.index(), start, c.t.now(), int64(n))
	return n, err
}

// The store decorators: the public seam between server and KV. A traced
// run draws connection i's keys from residue class i mod 2, so the
// first key of a batch names the connection that sent it.

type tracedStore struct {
	u64Store
	t *tracer
}

func (s tracedStore) ApplyInto(dst []kvResult, ops []kvOp) []kvResult {
	start := s.t.now()
	dst = s.u64Store.ApplyInto(dst, ops)
	s.t.record(spServerApply, int(ops[0].Key&1), start, s.t.now(), int64(len(ops)))
	return dst
}

type tracedBytesStore struct {
	bytesStore
	t *tracer
}

func (s tracedBytesStore) ApplyBytesInto(dst []bytesResult, buf []byte, ops []bytesOp) ([]bytesResult, []byte) {
	start := s.t.now()
	conn := int(ops[0].Key[len(ops[0].Key)-1] & 1)
	dst, buf = s.bytesStore.ApplyBytesInto(dst, buf, ops)
	s.t.record(spServerApply, conn, start, s.t.now(), int64(len(ops)))
	return dst, buf
}

// waitConn is the client's conn in a traced run: it adds up the time
// spent blocked in Read, which is the server's turn, not decoding.
type waitConn struct {
	net.Conn
	wait time.Duration
}

func (c *waitConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(p)
	c.wait += time.Since(start)
	return n, err
}
