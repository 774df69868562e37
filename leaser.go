package hyaline

import "hyaline/internal/session"

// leaser is the goroutine→tid leasing of one store shard: its
// session.Pool plus the chunked-scan state of each tid. See the KV doc
// comment for the lease protocol.
type leaser struct {
	pool  *session.Pool
	byTid []kvSession
}

// kvSession is the store's per-tid state, owned by whoever holds the
// tid's lease.
type kvSession struct {
	s *session.Session

	// Chunked-scan state of KV.scan, valid while the lease is held. It
	// lives here so a Range allocates nothing: visit is the method value
	// ks.step, bound once at init, and the callback handed to the
	// structure's Range instead of a fresh closure per call.
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
	for i := range l.byTid {
		l.byTid[i].visit = l.byTid[i].step
	}
}

// enter leases a session for one operation (or one batch) and opens its
// reclamation bracket; leave closes the bracket and returns the lease.
// Every store operation is `ks := sh.enter(); defer sh.leave(ks)`, with
// batchTrim re-arming the bracket between chunks of a long one.
func (l *leaser) enter() *kvSession {
	s := l.pool.Acquire()
	ks := &l.byTid[s.Tid()]
	ks.s = s
	s.Enter()
	return ks
}

func (l *leaser) leave(ks *kvSession) {
	ks.s.Leave()
	l.pool.Release(ks.s)
}

// leaveScan is leave for a scan: the caller's fn is dropped first, so an
// idle session never pins a caller's closure.
func (l *leaser) leaveScan(ks *kvSession) {
	ks.fn = nil
	l.leave(ks)
}
