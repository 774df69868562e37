// poll.go is where an idle connection waits without a goroutine. A
// connection's reader that has waited out its linger for a frame parks
// the connection's descriptor, one-shot, in an OS readiness poller
// (epoll, see poll_epoll.go) and exits. When the descriptor turns
// readable, the poller's loop starts a fresh reader for it. N idle
// connections therefore cost one server goroutine, the loop, instead of
// one each (hyaline_server_goroutines, the STATS goroutines field,
// shows it), while a busy connection keeps its reader and never parks.
//
// A reader finds its connection idle through a read deadline a linger
// after its last window, until it has found the connection busy twice.
// From then on the reader keeps no deadline, and the poller's sweep
// watches the connection instead: every sweepPeriod it gives a past
// read deadline to each watched reader that has begun no window since
// the sweep before, which sends that reader to park.
//
// A connection always has exactly one owner: its reader goroutine, or,
// while it is parked, the poller. Ownership moves under poller.mu:
// park hands a conn to the poller only if the poller is still running
// and the descriptor was armed, the loop takes a fired conn out of the
// parked set before it starts its reader, and the drain sweep takes
// whatever is still parked. Whoever owns a conn is the one that tears
// it down, so teardown runs exactly once.
package server

import (
	"errors"
	"net"
	"sync"
	"syscall"
	"time"
)

// idleLinger is how long a reader that keeps a read deadline waits for
// a frame before it parks its connection. A park and the respawn that
// follows it cost 25–45 µs on a 2-vCPU host: about 12 µs to arm the
// descriptor, and 10–30 µs that the readiness event and the goroutine
// start add to the first round trip after the gap. A connection that
// goes idle pays that once per linger, so 10 ms keeps it under 0.5 %.
//
// sweepPeriod is how often the sweep looks at the connections it
// watches. A read deadline costs a busy connection throughput
// (pipeline 1 through hyalined lost 5–10 % of its ops/s to one that
// fired every few seconds, 8–24 % to one that fired a hundred times a
// second), and a 10 ms ticker anywhere in the daemon cost as much; a
// 1 s ticker cost nothing measurable. So a busy connection keeps no
// deadline and parks within two sweeps of going idle.
const (
	idleLinger  = 10 * time.Millisecond
	sweepPeriod = time.Second
)

// errPollUnsupported is returned by newOSPoller on platforms without a
// backend; there a reader never parks.
var errPollUnsupported = errors.New("no readiness-poller backend on this platform")

// errPollerStopped is poller.park's refusal once Shutdown has stopped
// the poller.
var errPollerStopped = errors.New("readiness poller stopped")

// osPoller is the platform readiness backend. All events are
// level-triggered and one-shot: after wait reports a descriptor it is
// disarmed until arm re-enables it (add arms it the first time).
type osPoller interface {
	add(fd int) error
	arm(fd int) error
	// wait blocks until descriptors turn readable (or wake is called),
	// filling fds and returning the count.
	wait(fds []int) (int, error)
	// wake makes a blocked wait return promptly; it is called once, at
	// drain, and no wait after it need block.
	wake()
	// close releases the backend once the loop has stopped waiting.
	close()
}

// parkHook, when set by a test, runs after a reader has decided to park
// its conn and before it asks the poller to take it. An error it
// returns stands in for a failed arm.
var parkHook func() error

// poller owns the OS backend and the parked conns, keyed by descriptor.
type poller struct {
	srv *Server
	os  osPoller

	mu      sync.Mutex
	parked  map[int]*conn
	stopped bool
	// watched are the busy conns the sweep looks after. The sweep
	// goroutine runs while watched is non-empty and the poller runs;
	// closing sweepStop (nil when no sweep runs) ends it.
	watched   map[*conn]struct{}
	sweepStop chan struct{}

	loopDone  chan struct{}
	sweepDone sync.WaitGroup
	drainOnce sync.Once
}

func newPoller(s *Server) (*poller, error) {
	osp, err := newOSPoller()
	if err != nil {
		return nil, err
	}
	p := &poller{
		srv:      s,
		os:       osp,
		parked:   make(map[int]*conn),
		watched:  make(map[*conn]struct{}),
		loopDone: make(chan struct{}),
	}
	s.m.goroutines.Inc()
	go p.loop()
	return p, nil
}

// connFD extracts a connection's file descriptor without duplicating
// it. The descriptor stays valid until cn.c.Close(): the net package
// keeps it open for the connection's lifetime, and only a conn's owner
// closes it.
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

// park arms cn's descriptor and takes ownership of the conn. On an
// error — errPollerStopped once Shutdown has stopped the poller, or the
// arm's own — the caller still owns the conn. The lock is held across
// the arm, so a readiness event that fires at once finds the conn in
// the parked set, and the drain never closes the backend under an arm.
func (p *poller) park(cn *conn) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return errPollerStopped
	}
	var err error
	if cn.added {
		err = p.os.arm(cn.fd)
	} else if err = p.os.add(cn.fd); err == nil {
		cn.added = true
	}
	if err != nil {
		return err
	}
	p.unwatchLocked(cn)
	p.parked[cn.fd] = cn
	p.srv.m.pollRearms.Inc()
	return nil
}

// watch puts a busy conn, whose reader has dropped its read deadline,
// under the sweep, starting the sweep if it is not running. It marks
// the conn busy, so the first sweep leaves it alone. false means the
// poller has stopped.
func (p *poller) watch(cn *conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return false
	}
	cn.busy.Store(true)
	p.watched[cn] = struct{}{}
	if p.sweepStop == nil {
		p.sweepStop = make(chan struct{})
		p.srv.m.goroutines.Inc()
		p.sweepDone.Add(1)
		go p.sweep(p.sweepStop)
	}
	return true
}

// unwatch takes a conn that will not park out of the sweep.
func (p *poller) unwatch(cn *conn) {
	p.mu.Lock()
	p.unwatchLocked(cn)
	p.mu.Unlock()
}

// unwatchLocked takes cn out of the sweep and ends the sweep if it
// watched nothing else. The goroutine gauge drops at once, so it reads
// true as soon as the last watched conn parks or goes.
func (p *poller) unwatchLocked(cn *conn) {
	delete(p.watched, cn)
	if len(p.watched) == 0 {
		p.endSweepLocked()
	}
}

// endSweepLocked ends the sweep goroutine, if one runs.
func (p *poller) endSweepLocked() {
	if p.sweepStop != nil {
		close(p.sweepStop)
		p.sweepStop = nil
		p.srv.m.goroutines.Dec()
	}
}

// sweep is the sweep goroutine: every sweepPeriod it clears each
// watched conn's busy mark and gives a read deadline in the past to the
// reader of each conn whose mark was already clear. It runs until stop
// is closed.
func (p *poller) sweep(stop chan struct{}) {
	defer p.sweepDone.Done()
	t := time.NewTicker(sweepPeriod)
	defer t.Stop()
	var idle []*conn
	for {
		select {
		case <-t.C:
		case <-stop:
			return
		}
		idle = idle[:0]
		p.mu.Lock()
		for cn := range p.watched {
			if !cn.busy.Swap(false) {
				idle = append(idle, cn)
			}
		}
		p.mu.Unlock()
		// Kicked outside the lock: a kick that lands after its conn has
		// parked and been woken only costs the fresh reader one early
		// timeout, which it reads as a busy conn.
		now := time.Now()
		for _, cn := range idle {
			cn.c.SetReadDeadline(now)
		}
	}
}

// loop is the poller goroutine: wait for readiness and start a reader
// for each fired conn. A descriptor with no parked conn is a stale
// event for a conn that is gone, and it is dropped; a conn that the
// stale event wakes by descriptor reuse just parks again.
func (p *poller) loop() {
	defer close(p.loopDone)
	defer p.srv.m.goroutines.Dec()
	fds := make([]int, 128)
	var woke []*conn
	for {
		n, err := p.os.wait(fds)
		p.mu.Lock()
		if p.stopped {
			p.mu.Unlock()
			return
		}
		woke = woke[:0]
		if err == nil { // else EINTR and friends
			for _, fd := range fds[:n] {
				if cn, ok := p.parked[fd]; ok {
					delete(p.parked, fd)
					woke = append(woke, cn)
				}
			}
		}
		p.mu.Unlock()
		for _, cn := range woke {
			p.srv.m.pollWakeups.Inc()
			p.srv.spawn(cn, true)
		}
	}
}

// count is the number of parked conns, the conns_parked gauge.
func (p *poller) count() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int64(len(p.parked))
}

// drain stops the poller for Shutdown: no conn parks any more, every
// conn still parked is torn down, and the loop exits. Readers the loop
// started before the stop see the drain and tear their conns down
// themselves. It runs once; a repeated Shutdown's call waits for the
// first to finish.
func (p *poller) drain() { p.drainOnce.Do(p.stop) }

func (p *poller) stop() {
	p.mu.Lock()
	p.stopped = true
	p.endSweepLocked()
	swept := make([]*conn, 0, len(p.parked))
	for fd, cn := range p.parked {
		delete(p.parked, fd)
		swept = append(swept, cn)
	}
	p.mu.Unlock()
	for _, cn := range swept {
		cn.teardown()
	}
	p.sweepDone.Wait()
	p.os.wake()
	<-p.loopDone
	p.os.close()
}

// isTimeout reports whether err is a read-deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
