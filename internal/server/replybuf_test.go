package server

import (
	"context"
	"io"
	"net"
	"testing"
	"time"

	"hyaline"
	"hyaline/internal/protocol"
)

// sinkConn is a net.Conn that counts and discards what is written to it.
// The methods a window does not reach are left to the nil embedded Conn.
type sinkConn struct {
	net.Conn
	written int
}

func (c *sinkConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (c *sinkConn) Write(b []byte) (int, error)      { c.written += len(b); return len(b), nil }
func (c *sinkConn) Close() error                     { return nil }
func (c *sinkConn) SetWriteDeadline(time.Time) error { return nil }

// TestIdleConnHoldsNoReplyBuffer pins that a connection holds a reply
// buffer only while it answers a window: none before its first window,
// none after a served window or an ERR reply, and a PING window, taking
// and returning one from the pool, allocates nothing (not asserted under
// the race detector, whose sync.Pool drops some Puts). A parked
// connection holds neither a reply buffer nor a frame decoder, unless
// it parked with part of a frame buffered: then it keeps the decoder
// and those bytes, and answers the frame once the rest arrives.
func TestIdleConnHoldsNoReplyBuffer(t *testing.T) {
	kv, err := hyaline.NewKV("list", "hyaline", hyaline.KVOptions{MaxThreads: 2, ArenaCap: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	c := &sinkConn{}
	cn := newConn(New(kv, Options{}), c)
	if cn.bp != nil {
		t.Fatal("a new conn holds a reply buffer")
	}
	frame := func(b []byte) protocol.Frame {
		return protocol.Frame{Code: b[0], Payload: b[protocol.HeaderSize:]}
	}
	ping := frame(protocol.AppendPing(nil, []byte("idle?")))
	for _, f := range []protocol.Frame{frame(protocol.AppendSet(nil, 1, 2)), ping} {
		before := c.written
		cn.window(f)
		if c.written == before {
			t.Fatalf("op %#x: the window wrote no reply", f.Code)
		}
		if cn.bp != nil || cn.buf != nil {
			t.Fatalf("op %#x: the conn still holds a reply buffer after its window", f.Code)
		}
	}
	if raceEnabled {
		// The race runtime's sync.Pool drops about one Put in four, so
		// some windows reallocate the buffer; the holding checks above
		// and below still run.
		cn.window(ping)
	} else if avg := testing.AllocsPerRun(100, func() { cn.window(ping) }); avg != 0 {
		t.Fatalf("a PING window allocates %.2f times", avg)
	}
	if cn.bp != nil {
		t.Fatal("the conn still holds a reply buffer after its PING windows")
	}
	before := c.written
	cn.readFailed(protocol.ErrFraming)
	if c.written == before || cn.bp != nil {
		t.Fatalf("ERR reply: wrote %d bytes, holds buffer %v", c.written-before, cn.bp != nil)
	}
	if !pollSupported {
		return
	}

	srv := New(kv, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())
	peer, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	rd := protocol.NewReader(peer)
	for i, half := range []int{0, protocol.HeaderSize + 2} {
		// A whole window: after it, the parked conn holds nothing.
		set := protocol.AppendSet(nil, uint64(10+2*i), 1)
		if _, err := peer.Write(set); err != nil {
			t.Fatal(err)
		}
		if f, err := rd.ReadFrame(); err != nil || protocol.Status(f.Code) != protocol.StatusOK {
			t.Fatalf("SET: %v %v", f, err)
		}
		set = protocol.AppendSet(nil, uint64(11+2*i), 1)
		if half > 0 {
			// A trickle: half a frame, then a wait past the linger.
			if _, err := peer.Write(set[:half]); err != nil {
				t.Fatal(err)
			}
		}
		held := parked(t, srv, peer.LocalAddr(), func(cn *conn) string {
			switch {
			case cn.bp != nil || cn.buf != nil:
				return "a reply buffer"
			case half == 0 && cn.rd != nil:
				return "a frame decoder with nothing buffered"
			case half > 0 && (cn.rd == nil || cn.rd.Buffered() != half):
				return "no decoder holding the half frame"
			}
			return ""
		})
		if held != "" {
			t.Fatalf("parked after %d bytes of a frame, the conn holds %s", half, held)
		}
		if half > 0 {
			if _, err := peer.Write(set[half:]); err != nil {
				t.Fatal(err)
			}
			if f, err := rd.ReadFrame(); err != nil || protocol.Status(f.Code) != protocol.StatusOK {
				t.Fatalf("the trickled SET: %v %v", f, err)
			}
		}
	}
}

// parked waits until the server's conn from peer is parked and returns
// check's verdict on it, read while the poller owns the conn.
func parked(t *testing.T, s *Server, peer net.Addr, check func(*conn) string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		p := s.po
		s.mu.Unlock()
		if p != nil {
			p.mu.Lock()
			for _, cn := range p.parked {
				if cn.c.RemoteAddr().String() == peer.String() {
					verdict := check(cn)
					p.mu.Unlock()
					return verdict
				}
			}
			p.mu.Unlock()
		}
		if time.Now().After(deadline) {
			t.Fatal("the connection never parked")
		}
		time.Sleep(time.Millisecond)
	}
}
