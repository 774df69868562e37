package server

import "net"

// PollSupported reports whether this platform has a readiness-poller
// backend (epoll); where it is false, a reader never parks and
// the park tests skip.
func PollSupported() bool { return pollSupported }

// IdleLinger is how long a fresh reader waits for a frame before it
// parks its connection.
const IdleLinger = idleLinger

// IsParked reports whether the server's connection from peer is parked
// in the poller.
func IsParked(s *Server, peer net.Addr) bool {
	s.mu.Lock()
	p := s.po
	s.mu.Unlock()
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, cn := range p.parked {
		if cn.c.RemoteAddr().String() == peer.String() {
			return true
		}
	}
	return false
}

// IsWatched reports whether the poller's sweep watches the server's
// connection from peer.
func IsWatched(s *Server, peer net.Addr) bool {
	s.mu.Lock()
	p := s.po
	s.mu.Unlock()
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for cn := range p.watched {
		if cn.c.RemoteAddr().String() == peer.String() {
			return true
		}
	}
	return false
}

// SetParkHook makes f run each time a reader has decided to park its
// connection, before the poller takes it; an error f returns fails the
// park as a failed arm would. Install it before the server starts and
// remove it, with the returned func, after Shutdown.
func SetParkHook(f func() error) (restore func()) {
	parkHook = f
	return func() { parkHook = nil }
}

// DrainSwept reports whether Shutdown has stopped the server's poller
// and swept every parked connection out of it.
func DrainSwept(s *Server) bool {
	s.mu.Lock()
	p := s.po
	s.mu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stopped && len(p.parked) == 0
}
