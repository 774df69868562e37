package server

import (
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
// the race detector, whose sync.Pool drops some Puts).
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
}
