package hyaline

import (
	"runtime"
	"sync"
	"sync/atomic"

	"hyaline/internal/session"
)

// leaser is the goroutine→tid leasing machinery of one store shard: a
// session.Pool bitmap for claims, a per-P sync.Pool fast path, and a
// scavenger that repairs exhaustion. See the KV doc comment for the
// full protocol story.
type leaser struct {
	pool  *session.Pool
	byTid []kvSession

	// cache holds released sessions for per-P reuse. Entries may be
	// stale: a session can be scavenged out of a cached entry by an
	// exhausted acquirer (or dropped wholesale by the GC), so the
	// per-session state word is the single arbiter of ownership —
	// cache.Get yields a session only after winning the cached→active
	// CAS.
	//
	// The cache deliberately lives here and not in session.Pool: a
	// cached session is still leased from the pool's point of view, and
	// keeping the bitmap a strict lease ledger is what lets Pool.InUse
	// and Pool.Flush mean something at quiescence (the conformance
	// suite asserts on both). The leaser trades that exactness for a
	// faster steady state and repairs exhaustion by scavenging.
	cache   sync.Pool
	waiters atomic.Int32
	wake    chan struct{}
	flushMu sync.Mutex
}

// Session lease states. A tid starts free (in the pool bitmap), becomes
// active while an operation holds it, and parks as cached between
// operations. Cached sessions live in the sync.Pool but remain leased
// from the bitmap's point of view; the scavenger reclaims them when the
// bitmap runs dry, which also heals sessions the GC silently dropped
// from the sync.Pool.
const (
	kvFree uint32 = iota
	kvActive
	kvCached
)

type kvSession struct {
	s     *session.Session
	state atomic.Uint32

	// Chunked-scan state of KV.scan, valid while the lease is active. It
	// lives here so a Range allocates nothing: visit is the method value
	// ks.step, bound once when the tid is first claimed, and the callback
	// handed to the structure's Range instead of a fresh closure per call.
	stopped bool                       // fn returned false
	fn      func(key, val uint64) bool // the caller's callback; nil outside a scan
	visit   func(key, val uint64) bool
	visited int    // keys delivered in the current chunk
	last    uint64 // last key seen in the current chunk

	_ [16]byte // pad to 64 B: one leased session per cache line
}

// step is the per-key callback of a chunked scan: it forwards to the
// caller's fn and ends the chunk after batchChunk keys.
func (ks *kvSession) step(k, v uint64) bool {
	ks.last = k
	if !ks.fn(k, v) {
		ks.stopped = true
		return false
	}
	ks.visited++
	return ks.visited < batchChunk
}

// init wires the leaser over tr for maxThreads concurrent leases.
func (l *leaser) init(tr Tracker, maxThreads int) {
	l.pool = session.NewPool(tr, maxThreads)
	l.byTid = make([]kvSession, maxThreads)
	l.wake = make(chan struct{}, maxThreads)
}

// acquire leases a session for one operation.
func (l *leaser) acquire() *kvSession {
	if x := l.cache.Get(); x != nil {
		ks := x.(*kvSession)
		if ks.state.CompareAndSwap(kvCached, kvActive) {
			return ks
		}
		// Stale handle: the session was scavenged while cached (it may
		// reappear in the cache later — the state CAS arbitrates).
	}
	if ks := l.claim(); ks != nil {
		return ks
	}
	return l.acquireSlow()
}

// claim takes a never-yet-leased tid from the pool bitmap or scavenges
// a cached one. Returns nil when every session is actively in use.
func (l *leaser) claim() *kvSession {
	if s, ok := l.pool.TryAcquire(); ok {
		ks := &l.byTid[s.Tid()]
		// A tid leaves the bitmap once — released leases park as cached —
		// so this binds the session and its scan callback exactly once.
		ks.s = s
		ks.visit = ks.step
		ks.state.Store(kvActive)
		return ks
	}
	for i := range l.byTid {
		ks := &l.byTid[i]
		if ks.state.Load() == kvCached && ks.state.CompareAndSwap(kvCached, kvActive) {
			return ks
		}
	}
	return nil
}

// acquireSlow spins briefly, then parks until a release posts a wake
// token. The waiter count is published before the final claim attempt
// and release stores the cached state before checking the count, so a
// racing release always observes the waiter — no lost wakeups.
func (l *leaser) acquireSlow() *kvSession {
	for i := 0; i < 32; i++ {
		if ks := l.claim(); ks != nil {
			return ks
		}
		runtime.Gosched()
	}
	l.waiters.Add(1)
	defer l.waiters.Add(-1)
	for {
		if ks := l.claim(); ks != nil {
			return ks
		}
		<-l.wake
	}
}

func (l *leaser) release(ks *kvSession) {
	ks.state.Store(kvCached)
	l.cache.Put(ks)
	if l.waiters.Load() > 0 {
		select {
		case l.wake <- struct{}{}:
		default: // buffer full: enough pending tokens already
		}
	}
}

// enter leases a session for one operation (or one batch) and opens its
// reclamation bracket; leave closes the bracket and returns the lease.
// Every store operation is `ks := sh.enter(); defer sh.leave(ks)`, with
// batchTrim re-arming the bracket between chunks of a long one.
func (l *leaser) enter() *kvSession {
	ks := l.acquire()
	ks.s.Enter()
	return ks
}

func (l *leaser) leave(ks *kvSession) {
	ks.s.Leave()
	l.release(ks)
}

// leaveScan is leave for a scan: the caller's fn is dropped first, so a
// session parked in the cache never pins a caller's closure.
func (l *leaser) leaveScan(ks *kvSession) {
	ks.fn = nil
	l.leave(ks)
}

// inFlight counts the sessions held by operations currently executing
// (active leases; idle cached sessions do not count).
func (l *leaser) inFlight() int {
	n := 0
	for i := range l.byTid {
		if l.byTid[i].state.Load() == kvActive {
			n++
		}
	}
	return n
}

// flush briefly leases every session (waiting out in-flight
// operations) and drains each one's pending reclamation.
func (l *leaser) flush() {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	held := make([]*kvSession, 0, l.pool.MaxThreads())
	for len(held) < cap(held) {
		held = append(held, l.acquire())
	}
	for _, ks := range held {
		ks.s.Flush()
	}
	for _, ks := range held {
		l.release(ks)
	}
}
