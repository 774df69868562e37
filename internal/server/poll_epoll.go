//go:build linux

package server

import (
	"os"
	"syscall"
	"time"
)

const pollSupported = true

// epollPoller is the Linux osPoller: one epoll instance. Connections
// are registered EPOLLIN|EPOLLRDHUP|EPOLLONESHOT — one-shot, so a fired
// descriptor stays quiet until the next park re-arms it with
// EPOLL_CTL_MOD.
//
// The epoll descriptor is itself pollable, so wait parks the loop
// goroutine in the Go runtime's netpoller until the set has events and
// then collects them without blocking. No thread sits in epoll_wait: at
// GOMAXPROCS=1 a blocked epoll_wait would hold the only P until sysmon
// took it back, stalling every other goroutine for up to 10 ms.
type epollPoller struct {
	epfd   int
	f      *os.File // epfd, registered with the runtime's netpoller
	rc     syscall.RawConn
	events []syscall.EpollEvent
}

func newOSPoller() (osPoller, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, err
	}
	if err := syscall.SetNonblock(epfd, true); err != nil {
		syscall.Close(epfd)
		return nil, err
	}
	ep := &epollPoller{epfd: epfd, f: os.NewFile(uintptr(epfd), "epoll"), events: make([]syscall.EpollEvent, 128)}
	// A file the netpoller could not take has no deadlines; wait would
	// then fail at once, every time.
	if err := ep.f.SetReadDeadline(time.Time{}); err != nil {
		ep.f.Close()
		return nil, err
	}
	if ep.rc, err = ep.f.SyscallConn(); err != nil {
		ep.f.Close()
		return nil, err
	}
	return ep, nil
}

// connEvents is the registration mask for connection descriptors.
// EPOLLRDHUP makes a peer close/half-close fire readiness, so the
// woken reader's read observes the EOF promptly instead of the conn
// staying parked forever.
const connEvents = syscall.EPOLLIN | syscall.EPOLLRDHUP | (syscall.EPOLLONESHOT & 0xffffffff)

func (ep *epollPoller) add(fd int) error {
	ev := syscall.EpollEvent{Events: uint32(connEvents), Fd: int32(fd)}
	return syscall.EpollCtl(ep.epfd, syscall.EPOLL_CTL_ADD, fd, &ev)
}

func (ep *epollPoller) arm(fd int) error {
	ev := syscall.EpollEvent{Events: uint32(connEvents), Fd: int32(fd)}
	return syscall.EpollCtl(ep.epfd, syscall.EPOLL_CTL_MOD, fd, &ev)
}

func (ep *epollPoller) wait(fds []int) (int, error) {
	var n int
	var err error
	rerr := ep.rc.Read(func(uintptr) bool {
		n, err = syscall.EpollWait(ep.epfd, ep.events[:min(len(fds), len(ep.events))], 0)
		return n > 0 || err != nil
	})
	if rerr != nil {
		return 0, rerr
	}
	if err != nil {
		return 0, err
	}
	for i, ev := range ep.events[:n] {
		fds[i] = int(ev.Fd)
	}
	return n, nil
}

// wake closes the epoll file: a wait in progress returns at once, and
// the descriptor is released when it has.
func (ep *epollPoller) wake() { ep.f.Close() }

// close has nothing left to release: wake closed the epoll file.
func (ep *epollPoller) close() {}
