// poll.go is the event-driven connection layer behind Options.Poll: a
// readiness poller (epoll/kqueue, see poll_epoll.go / poll_kqueue.go)
// plus a bounded worker pool. An idle connection costs no goroutine —
// its file descriptor sits armed in the OS poller — and only when it
// turns readable is it handed to a worker, which services pipeline
// windows until the connection goes idle again and re-parks it. N
// mostly-idle connections therefore cost O(GOMAXPROCS) server
// goroutines instead of one (previously two) each, which is what lets
// one daemon hold 10k and more of them (hyaline_server_goroutines, the
// STATS goroutines field, shows it).
//
// The conn's poll state machine has four states: parked (armed in the
// poller, no goroutine attached), queued (readable, waiting for a
// worker), running (a worker is servicing it), and dead (torn down,
// exactly once). Events are one-shot: a parked conn fires at most one
// readiness event until a worker re-arms it, so a conn is never queued
// or serviced twice concurrently.
//
// A worker's first ReadFrame of a service pass runs under a short
// deadline: if the event was spurious (or the peer trickled half a
// frame), the worker clears the timeout, re-parks the conn — partial
// bytes stay buffered in its Reader — and moves on, so a slow or
// byte-at-a-time peer can never pin a worker.
package server

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// Poll states, in cn.pstate.
const (
	pollIdle    int32 = iota // parked in the poller (or not yet registered)
	pollQueued               // readiness fired; waiting in the ready queue
	pollRunning              // a worker is servicing it
	pollDead                 // torn down
)

// pollServiceTimeout bounds a worker's blocking ReadFrame at the start
// of a service pass. Data is normally already buffered (the poller said
// readable), so the deadline only fires on spurious wakeups and
// mid-frame trickles — both of which re-park the conn instead of
// pinning the worker.
const pollServiceTimeout = 500 * time.Millisecond

// errPollUnsupported is returned by newOSPoller on platforms without an
// epoll/kqueue backend; the server falls back to goroutine-per-conn.
var errPollUnsupported = errors.New("no readiness-poller backend on this platform")

// osPoller is the platform readiness backend. All events are
// level-triggered and one-shot: after wait reports a descriptor it is
// disarmed until arm re-enables it (add arms it the first time).
type osPoller interface {
	add(fd int) error
	arm(fd int) error
	// wait blocks until descriptors turn readable (or wake is called),
	// filling fds and returning the count.
	wait(fds []int) (int, error)
	// wake makes a blocked wait return promptly.
	wake()
	close()
}

// pollWorkers is the service pool's size: 2×GOMAXPROCS, at least 2.
func pollWorkers() int { return max(2*runtime.GOMAXPROCS(0), 2) }

// poller owns the OS backend, the fd→conn registry and the worker pool.
type poller struct {
	srv   *Server
	os    osPoller
	ready chan *conn

	mu      sync.Mutex
	reg     map[int]*conn
	stopped bool

	loopDone  sync.WaitGroup
	workDone  sync.WaitGroup
	drainOnce sync.Once
}

func newPoller(s *Server) (*poller, error) {
	osp, err := newOSPoller()
	if err != nil {
		return nil, err
	}
	p := &poller{
		srv:   s,
		os:    osp,
		ready: make(chan *conn, 1024),
		reg:   make(map[int]*conn),
	}
	p.loopDone.Add(1)
	s.m.goroutines.Inc()
	go p.loop()
	for range pollWorkers() {
		p.workDone.Add(1)
		s.m.goroutines.Inc()
		go p.worker()
	}
	return p, nil
}

// connFD extracts a connection's file descriptor without duplicating
// it. The descriptor stays valid until cn.c.Close(): the net package
// keeps it open for the connection's lifetime, and teardown always
// unregisters before closing.
func connFD(c net.Conn) (int, bool) {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return 0, false
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return 0, false
	}
	fd := -1
	if err := rc.Control(func(f uintptr) { fd = int(f) }); err != nil || fd < 0 {
		return 0, false
	}
	return fd, true
}

// register parks a fresh connection in the poller. false means the
// caller must fall back to a dedicated goroutine (no descriptor, the
// poller is draining, or the OS rejected the registration).
func (p *poller) register(cn *conn) bool {
	fd, ok := connFD(cn.c)
	if !ok {
		return false
	}
	cn.fd = fd
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return false
	}
	p.reg[fd] = cn
	p.mu.Unlock()
	if err := p.os.add(fd); err != nil {
		p.mu.Lock()
		delete(p.reg, fd)
		p.mu.Unlock()
		return false
	}
	return true
}

func (p *poller) lookup(fd int) *conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reg[fd]
}

func (p *poller) unregister(fd int) {
	p.mu.Lock()
	delete(p.reg, fd)
	p.mu.Unlock()
}

func (p *poller) isStopped() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stopped
}

// loop is the poller goroutine: wait for readiness, move each fired
// conn from parked to queued, hand it to the workers. A descriptor
// with no registry entry is a stale event from a conn torn down after
// the event fired — dropped. The ready send may block when every
// worker is busy; that is backpressure, and it cannot deadlock drain
// because workers keep consuming until the channel is closed, which
// happens only after this loop exits.
func (p *poller) loop() {
	defer p.loopDone.Done()
	defer p.srv.m.goroutines.Dec()
	fds := make([]int, 128)
	for {
		n, err := p.os.wait(fds)
		if p.isStopped() {
			return
		}
		if err != nil {
			continue // EINTR and friends
		}
		for _, fd := range fds[:n] {
			cn := p.lookup(fd)
			if cn == nil {
				continue
			}
			if cn.pstate.CompareAndSwap(pollIdle, pollQueued) {
				p.srv.m.pollWakeups.Inc()
				p.ready <- cn
			}
		}
	}
}

// worker services ready connections until the queue closes at drain.
// Connections handed over after drain began are torn down unserviced —
// the same contract as the dedicated-reader model, where a deadline in
// the past fails the next blocking read before any new window starts.
func (p *poller) worker() {
	defer p.workDone.Done()
	defer p.srv.m.goroutines.Dec()
	for cn := range p.ready {
		if p.srv.isDraining() {
			p.teardown(cn)
			continue
		}
		p.service(cn)
	}
}

// service runs pipeline windows on one readable connection until it
// has no more buffered or in-flight data, then re-parks it. The first
// frame of each window blocks under pollServiceTimeout; a timeout with
// the stream still well-framed re-parks instead of killing the conn.
func (p *poller) service(cn *conn) {
	cn.pstate.Store(pollRunning)
	for {
		if cn.fatal || cn.srv.isDraining() {
			p.teardown(cn)
			return
		}
		cn.c.SetReadDeadline(time.Now().Add(pollServiceTimeout))
		f, err := cn.rd.ReadFrame()
		if err != nil {
			if isTimeout(err) && !cn.srv.isDraining() {
				// Spurious wakeup or a mid-frame trickle: keep whatever
				// bytes arrived buffered and go back to waiting for
				// readiness.
				p.srv.m.pollSpurious.Inc()
				cn.rd.ClearError()
				if !p.park(cn) {
					p.teardown(cn)
				}
				return
			}
			cn.readFailed(err) // ERR for a framing violation; else EOF, peer reset, or drain deadline
			p.teardown(cn)
			return
		}
		cn.c.SetReadDeadline(time.Time{})
		cn.window(f)
		if cn.fatal || cn.srv.isDraining() {
			p.teardown(cn)
			return
		}
		if cn.rd.Buffered() == 0 {
			if !p.park(cn) {
				p.teardown(cn)
			}
			return
		}
		// A partial frame (or more windows) is already buffered; keep
		// servicing rather than bouncing through the poller.
	}
}

// park re-arms the connection in the poller. false means the conn must
// be torn down instead: the poller is draining (and its sweep may
// already have claimed the conn — teardown is idempotent) or the
// re-arm failed.
func (p *poller) park(cn *conn) bool {
	cn.pstate.Store(pollIdle)
	p.mu.Lock()
	stopped := p.stopped
	p.mu.Unlock()
	if stopped {
		return false
	}
	if p.os.arm(cn.fd) != nil {
		return false
	}
	p.srv.m.pollRearms.Inc()
	return true
}

// parked counts registered connections currently sitting idle in the
// poller — the figure the conns_parked gauge reports.
func (p *poller) parked() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, cn := range p.reg {
		if cn.pstate.Load() == pollIdle {
			n++
		}
	}
	return n
}

// teardown retires a polled connection exactly once (the drain sweep
// and a worker can race here; pstate arbitrates).
func (p *poller) teardown(cn *conn) {
	if cn.pstate.Swap(pollDead) == pollDead {
		return
	}
	p.unregister(cn.fd)
	cn.teardown()
}

// drain stops the poller for Shutdown: the loop exits, workers finish
// their current service pass and drain the queue, and every conn still
// parked is torn down. On return no poll goroutine remains and every
// polled conn has released its Server.wg unit. It runs once; a repeated
// Shutdown's call waits for the first to finish.
func (p *poller) drain() { p.drainOnce.Do(p.stop) }

func (p *poller) stop() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	p.os.wake()
	p.loopDone.Wait()
	close(p.ready)
	p.workDone.Wait()
	// Whatever is left is parked (workers consumed everything queued,
	// and nothing can be running anymore): sweep it.
	p.mu.Lock()
	parked := make([]*conn, 0, len(p.reg))
	for _, cn := range p.reg {
		parked = append(parked, cn)
	}
	p.mu.Unlock()
	for _, cn := range parked {
		p.teardown(cn)
	}
	p.os.close()
}

// isTimeout reports whether err is a read-deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
