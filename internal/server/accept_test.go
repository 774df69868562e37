package server_test

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"hyaline"
	"hyaline/internal/protocol"
	"hyaline/internal/server"
)

// flakyListener wraps a real listener and injects queued errors before
// delegating, modeling transient accept failures (EMFILE under
// descriptor pressure, aborted handshakes) that a server must survive.
type flakyListener struct {
	net.Listener
	mu   sync.Mutex
	errs []error
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if len(l.errs) > 0 {
		err := l.errs[0]
		l.errs = l.errs[1:]
		l.mu.Unlock()
		return nil, err
	}
	l.mu.Unlock()
	return l.Listener.Accept()
}

// timeoutError satisfies net.Error with Timeout()==true, the other
// transient class the accept loop must retry.
type timeoutError struct{}

func (timeoutError) Error() string   { return "fake accept timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// TestAcceptTransientRetry is the headline regression: Serve used to
// return on any Accept error, so one EMFILE killed the server. Inject
// transient failures ahead of real accepts and assert the server keeps
// accepting and still drains clean.
func TestAcceptTransientRetry(t *testing.T) {
	kv, err := hyaline.NewKV("hashmap", "hyaline", hyaline.KVOptions{
		MaxThreads: 4,
		ArenaCap:   1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &flakyListener{
		Listener: inner,
		errs: []error{
			&net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE},
			&net.OpError{Op: "accept", Net: "tcp", Err: syscall.ECONNABORTED},
			timeoutError{},
		},
	}
	srv := server.New(kv, server.Options{})
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// The first dial lands after all three injected errors: if Serve
	// died on any of them, the connection is refused or resets.
	_, w, rd := dial(t, ln.Addr().String())
	w.Set(1, 38)
	w.Get(1)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	wantStatus(t, readFrame(t, rd), protocol.StatusOK)
	f := readFrame(t, rd)
	wantStatus(t, f, protocol.StatusOK)
	if v, _ := protocol.U64(f.Payload); v != 38 {
		t.Fatalf("GET after transient accept errors returned %d, want 38", v)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != server.ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	if n := kv.InFlight(); n != 0 {
		t.Fatalf("%d session leases in flight after drain", n)
	}
}

// TestAcceptFatalError: a non-transient accept error still kills Serve
// — the retry loop must not spin on a broken listener forever.
func TestAcceptFatalError(t *testing.T) {
	kv, err := hyaline.NewKV("hashmap", "hyaline", hyaline.KVOptions{
		MaxThreads: 2,
		ArenaCap:   1 << 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	fatal := errors.New("listener torn out of the wall")
	ln := &flakyListener{Listener: inner, errs: []error{fatal}}
	srv := server.New(kv, server.Options{})
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if !errors.Is(err, fatal) {
			t.Fatalf("Serve returned %v, want the fatal accept error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve kept retrying a fatal accept error")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestMaxConns: accepts beyond the cap are refused immediately (the
// socket closes unserved) and counted; closing an admitted connection
// frees its slot.
func TestMaxConns(t *testing.T) {
	_, srv, addr := testServer(t, "hashmap", "hyaline", server.Options{MaxConns: 2})

	var conns []net.Conn
	for i := 0; i < 2; i++ {
		c, w, rd := dial(t, addr)
		w.Ping([]byte("in"))
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		wantStatus(t, readFrame(t, rd), protocol.StatusOK)
		conns = append(conns, c)
	}

	over, w3, rd3 := dial(t, addr)
	w3.Ping([]byte("over"))
	if err := w3.Flush(); err == nil {
		// The write may succeed into the kernel buffer; the read is the
		// reliable observation of the refused connection.
		if _, err := rd3.ReadFrame(); err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF) && err == nil {
			t.Fatal("connection over MaxConns was served")
		}
	}
	over.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n, _ := srv.Metrics().Value("hyaline_server_conns_rejected_total"); n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("over-cap accept was never rejected")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Free one slot; the next dial must be admitted.
	conns[0].Close()
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, active, _, _ := srv.Counters(); active < 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("closed connection never released its slot")
		}
		time.Sleep(2 * time.Millisecond)
	}
	_, w4, rd4 := dial(t, addr)
	w4.Ping([]byte("admitted"))
	if err := w4.Flush(); err != nil {
		t.Fatal(err)
	}
	f := readFrame(t, rd4)
	wantStatus(t, f, protocol.StatusOK)
	if string(f.Payload) != "admitted" {
		t.Fatalf("post-release ping echoed %q", f.Payload)
	}
}
