// Package session makes thread ids an internal leased resource instead
// of a public API parameter. The reclamation schemes and data structures
// in this repository identify callers by dense tids in [0, MaxThreads) —
// the model of the paper's evaluation framework, where worker threads
// are long-lived and numbered up front. Go programs are not shaped like
// that: millions of short-lived goroutines come and go, far more than
// there are tids. A Pool bridges the two worlds by leasing tids to
// goroutines for the duration of a few operations, the same
// "many ephemeral workers over few durable slots" arrangement a pod
// scheduler uses for containers over hosts.
//
// Every tid has one preallocated Session, and the Session's held word is
// the only record of who owns the tid: Acquire wins a tid by CASing its
// held word from free to held, Release CASes it back, and InUse counts
// the held words. The word is written on every lease, so each Session is
// padded to its own cache line.
//
// Acquire looks for a free tid in three places, cheapest first:
//
//   - The per-P cache. Release puts the session into a sync.Pool, whose
//     per-P caches make a goroutine overwhelmingly likely to get back the
//     session its P released a moment ago — a line already in this core's
//     cache. A cached handle may be stale (the scan below won its tid
//     meanwhile, or it was cached twice), so it counts only once the held
//     CAS succeeds.
//   - The recovery scan. On a cache miss Acquire walks every session and
//     CASes the first free one. This also recovers the sessions the GC
//     dropped from the cache and those stranded in another P's private
//     slot: the cache only speeds leasing up, it never owns a tid.
//   - Park. When every tid is held, Acquire spins briefly (another
//     goroutine is mid-operation and will release within nanoseconds) and
//     then parks on a wake channel, so an oversubscribed process does not
//     burn cores busy-waiting.
//
// Exclusive leasing is what makes sharing a tid across goroutines safe:
// the Release CAS and the next Acquire CAS on the same held word form a
// happens-before edge, so per-tid tracker state written by the previous
// holder is visible to the next one without further synchronization.
package session

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hyaline/internal/smr"
)

// acquireSpins is how many Gosched rounds Acquire burns before parking.
// Leases are held for a handful of map operations, so a short spin
// almost always wins; parking is the oversubscription fallback.
const acquireSpins = 32

// BatchChunk is how many operations a batched caller should run under
// one Enter bracket before re-arming it (Trim where supported, a real
// Leave+Enter otherwise): the chunk bounds how long one batch pins
// retired nodes. The KV batch API and the bench harness share this
// value so the harness always measures the shipped batching behaviour.
const BatchChunk = 64

// Pool leases the tids of one tracker to goroutines.
type Pool struct {
	tr   smr.Tracker
	trim smr.Trimmer // tr, if it supports Trim
	fl   smr.Flusher // tr, if it supports Flush

	// sessions[tid] is the preallocated handle leased together with tid,
	// so Acquire never touches the Go heap.
	sessions []Session

	// cache holds released sessions for per-P reuse (see the package doc).
	cache sync.Pool

	// waiters counts goroutines parked (or about to park) in Acquire;
	// Release posts one wake token when it is nonzero. The channel is
	// buffered to MaxThreads tokens: a dropped send can only happen when enough
	// tokens are already pending to wake every possible waiter.
	waiters atomic.Int32
	wake    chan struct{}

	// flushMu serializes Flush: two flushes each holding part of the tids
	// would wait for each other forever.
	flushMu sync.Mutex
}

// NewPool creates a pool leasing tids [0, maxThreads) of tr. The tracker
// must have been constructed with at least maxThreads thread slots.
func NewPool(tr smr.Tracker, maxThreads int) *Pool {
	if maxThreads <= 0 {
		panic(fmt.Sprintf("session: maxThreads must be positive, got %d", maxThreads))
	}
	p := &Pool{
		tr:       tr,
		sessions: make([]Session, maxThreads),
		wake:     make(chan struct{}, maxThreads),
	}
	p.trim, _ = tr.(smr.Trimmer)
	p.fl, _ = tr.(smr.Flusher)
	for i := range p.sessions {
		p.sessions[i].pool, p.sessions[i].tid = p, i
	}
	return p
}

// MaxThreads returns the number of leasable tids.
func (p *Pool) MaxThreads() int { return len(p.sessions) }

// Tracker returns the underlying reclamation scheme.
func (p *Pool) Tracker() smr.Tracker { return p.tr }

// tryAcquire leases the first free tid of the recovery scan without
// blocking. It returns nil only when every tid is held.
func (p *Pool) tryAcquire() *Session {
	for i := range p.sessions {
		s := &p.sessions[i]
		if !s.held.Load() && s.held.CompareAndSwap(false, true) {
			return s
		}
	}
	return nil
}

// Acquire leases a tid: this P's cached session if its held CAS wins,
// else the recovery scan, spinning briefly and then parking when the
// pool is exhausted. The returned Session is exclusively owned until
// Release.
func (p *Pool) Acquire() *Session {
	if s, ok := p.cache.Get().(*Session); ok && s.held.CompareAndSwap(false, true) {
		return s
	}
	for i := 0; i < acquireSpins; i++ {
		if s := p.tryAcquire(); s != nil {
			return s
		}
		runtime.Gosched()
	}
	return p.park()
}

// park waits for a Release. The waiter count is published before the
// final scan, and Release frees the held word before checking the count,
// so a release racing past the scan below is guaranteed to observe the
// waiter and post a token — no lost wakeups.
func (p *Pool) park() *Session {
	p.waiters.Add(1)
	defer p.waiters.Add(-1)
	for {
		if s := p.tryAcquire(); s != nil {
			return s
		}
		<-p.wake
	}
}

// Release returns a leased tid to the pool. The caller must not use s
// afterwards. Releasing a session twice panics: a double release would
// let two goroutines hold the same tid, corrupting per-tid state.
func (p *Pool) Release(s *Session) {
	if s.pool != p {
		panic("session: Release of a Session from a different pool")
	}
	// A CAS, never the value-returning atomic Or: this toolchain
	// (go1.24.0) miscompiles the Or intrinsic when its result is used.
	if !s.held.CompareAndSwap(true, false) {
		panic(fmt.Sprintf("session: double release of tid %d", s.tid))
	}
	p.cache.Put(s)
	if p.waiters.Load() > 0 {
		select {
		case p.wake <- struct{}{}:
		default: // buffer full: enough pending tokens already
		}
	}
}

// InUse returns the number of currently leased tids (approximate under
// concurrency; exact at quiescence).
func (p *Pool) InUse() int {
	n := 0
	for i := range p.sessions {
		if p.sessions[i].held.Load() {
			n++
		}
	}
	return n
}

// Flush drains pending reclamation for every tid. It first leases every
// tid, waiting out in-flight operations (smr.Flusher forbids flushing a
// tid inside an operation), so it is safe beside other leases but must
// not be called while holding one: it would wait for itself. Trackers
// that do not implement Flusher make this a no-op.
func (p *Pool) Flush() {
	if p.fl == nil {
		return
	}
	p.flushMu.Lock()
	defer p.flushMu.Unlock()
	for range p.sessions {
		p.Acquire() // with every tid held, sessions[i] are all ours
	}
	for i := range p.sessions {
		p.sessions[i].Flush()
	}
	for i := range p.sessions {
		p.Release(&p.sessions[i])
	}
}

// Session is one leased tid, bound to the pool's tracker. It is owned
// by exactly one goroutine between Acquire and Release and must not be
// retained across that window.
type Session struct {
	pool *Pool
	tid  int
	held atomic.Bool // the lease: set by Acquire's CAS, cleared by Release's
	_    [44]byte    // pad to 64 B: one session per cache line
}

// Tid returns the leased thread id, for calling into the tid-keyed
// low-level APIs (ds.Map, smr.Tracker) under this lease.
func (s *Session) Tid() int { return s.tid }

// Enter begins a data structure operation (smr.Tracker.Enter).
func (s *Session) Enter() { s.pool.tr.Enter(s.tid) }

// Leave ends the operation; the goroutine is off the hook (§2.4).
func (s *Session) Leave() { s.pool.tr.Leave(s.tid) }

// Trim is the paper's §3.3 leave-then-enter without touching the slot
// head. Schemes without Trim support fall back to a real Leave+Enter
// pair, which is semantically equivalent (but not O(1)).
func (s *Session) Trim() {
	if s.pool.trim != nil {
		s.pool.trim.Trim(s.tid)
		return
	}
	s.pool.tr.Leave(s.tid)
	s.pool.tr.Enter(s.tid)
}

// Flush drains this tid's pending reclamation (outside Enter/Leave).
// Schemes without Flush support make it a no-op.
func (s *Session) Flush() {
	if s.pool.fl != nil {
		s.pool.fl.Flush(s.tid)
	}
}
