package protocol

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestRequestRoundTrip encodes every request type through the Writer and
// decodes it back frame by frame.
func TestRequestRoundTrip(t *testing.T) {
	var net bytes.Buffer
	w := NewWriter(&net)
	w.Ping([]byte("hello"))
	w.Get(7)
	w.Set(1<<63+5, 99)
	w.Del(0)
	w.Len()
	w.Stats()
	if w.Pending() == 0 {
		t.Fatal("Writer buffered nothing")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Pending() != 0 {
		t.Fatalf("Pending=%d after Flush", w.Pending())
	}

	rd := NewReader(&net)
	expect := func(op Op, wantPayload int) Frame {
		t.Helper()
		f, err := rd.ReadFrame()
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if Op(f.Code) != op {
			t.Fatalf("got %s, want %s", Op(f.Code), op)
		}
		if len(f.Payload) != wantPayload {
			t.Fatalf("%s payload %d bytes, want %d", op, len(f.Payload), wantPayload)
		}
		if err := ValidateRequest(Op(f.Code), f.Payload); err != nil {
			t.Fatalf("ValidateRequest(%s): %v", op, err)
		}
		return f
	}
	if f := expect(OpPing, 5); string(f.Payload) != "hello" {
		t.Fatalf("ping echo payload %q", f.Payload)
	}
	if f := expect(OpGet, 8); mustU64(t, f.Payload) != 7 {
		t.Fatal("GET key mismatch")
	}
	f := expect(OpSet, 16)
	if k, v, err := KeyVal(f.Payload); err != nil || k != 1<<63+5 || v != 99 {
		t.Fatalf("SET decode: k=%d v=%d err=%v", k, v, err)
	}
	if f := expect(OpDel, 8); mustU64(t, f.Payload) != 0 {
		t.Fatal("DEL key mismatch")
	}
	expect(OpLen, 0)
	expect(OpStats, 0)
	if _, err := rd.ReadFrame(); err != io.EOF {
		t.Fatalf("want io.EOF at clean end, got %v", err)
	}
}

func mustU64(t *testing.T, p []byte) uint64 {
	t.Helper()
	v, err := U64(p)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestReplyRoundTrip covers the reply constructors.
func TestReplyRoundTrip(t *testing.T) {
	var b []byte
	b = AppendOK(b)
	b = AppendNil(b)
	b = AppendValue(b, 42)
	b = AppendPingReply(b, []byte("pong"))
	b = AppendErr(b, "boom")
	rd := NewReader(bytes.NewReader(b))

	read := func(want Status, payload int) Frame {
		t.Helper()
		f, err := rd.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if Status(f.Code) != want {
			t.Fatalf("got %s, want %s", Status(f.Code), want)
		}
		if len(f.Payload) != payload {
			t.Fatalf("%s payload %d bytes, want %d", want, len(f.Payload), payload)
		}
		return f
	}
	read(StatusOK, 0)
	read(StatusNil, 0)
	if f := read(StatusOK, 8); mustU64(t, f.Payload) != 42 {
		t.Fatal("value mismatch")
	}
	if f := read(StatusOK, 4); string(f.Payload) != "pong" {
		t.Fatalf("echo %q", f.Payload)
	}
	if f := read(StatusErr, 4); string(f.Payload) != "boom" {
		t.Fatalf("err payload %q", f.Payload)
	}
}

// TestErrTruncated: oversized error messages are capped, not panicking
// or exceeding a frame.
func TestErrTruncated(t *testing.T) {
	long := strings.Repeat("x", 10_000)
	b := AppendErr(nil, long)
	rd := NewReader(bytes.NewReader(b))
	f, err := rd.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Payload) != errMsgCap {
		t.Fatalf("error payload %d bytes, want capped %d", len(f.Payload), errMsgCap)
	}
}

// TestStatsRoundTrip exercises the STATS payload codec.
func TestStatsRoundTrip(t *testing.T) {
	in := Stats{
		Structure:   "hashmap",
		Scheme:      "hyaline-1s",
		MaxThreads:  16,
		Shards:      8,
		Conns:       3,
		TotalConns:  99,
		Ops:         1 << 40,
		Len:         50_000,
		Live:        50_211,
		Allocated:   1 << 50,
		Retired:     123456,
		Freed:       123000,
		Scans:       777,
		Goroutines:  42,
		Rejected:    6,
		ActiveConns: 2,
	}
	b := AppendStatsReply(nil, in)
	rd := NewReader(bytes.NewReader(b))
	f, err := rd.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if Status(f.Code) != StatusOK {
		t.Fatalf("stats reply status %s", Status(f.Code))
	}
	out, err := ParseStats(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", out, in)
	}
	if out.Unreclaimed() != 456 {
		t.Fatalf("Unreclaimed=%d, want 456", out.Unreclaimed())
	}
}

// TestParseStatsErrors: truncations at every boundary error cleanly.
func TestParseStatsErrors(t *testing.T) {
	full := AppendStatsReply(nil, Stats{Structure: "list", Scheme: "hp"})[HeaderSize:]
	for n := 0; n < len(full); n++ {
		if _, err := ParseStats(full[:n]); err == nil {
			t.Fatalf("ParseStats accepted %d of %d bytes", n, len(full))
		}
	}
	if _, err := ParseStats(append(full, 0)); err == nil {
		t.Fatal("ParseStats accepted a trailing byte")
	}
	if _, err := ParseStats(full); err != nil {
		t.Fatalf("ParseStats rejected the full payload: %v", err)
	}
}

// chunkReader returns 1 byte per Read call — the worst-case stream
// fragmentation for the decoder.
type chunkReader struct{ b []byte }

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	p[0] = c.b[0]
	c.b = c.b[1:]
	return 1, nil
}

// TestReaderFragmented decodes frames arriving one byte at a time.
func TestReaderFragmented(t *testing.T) {
	var b []byte
	b = AppendSet(b, 11, 22)
	b = AppendGet(b, 33)
	rd := NewReader(&chunkReader{b: b})
	f, err := rd.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if k, v, _ := KeyVal(f.Payload); k != 11 || v != 22 {
		t.Fatalf("SET decode k=%d v=%d", k, v)
	}
	f, err = rd.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if mustU64(t, f.Payload) != 33 {
		t.Fatal("GET key mismatch")
	}
	if _, err := rd.ReadFrame(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

// TestTryReadFrame: parses only buffered bytes and never touches the
// source.
func TestTryReadFrame(t *testing.T) {
	var b []byte
	b = AppendGet(b, 1)
	b = AppendGet(b, 2)
	b = AppendGet(b, 3)
	// A source that delivers everything on the first read, then panics:
	// TryReadFrame must never reach it.
	src := &oneShotReader{b: b}
	rd := NewReader(src)
	if _, err := rd.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	for want := uint64(2); want <= 3; want++ {
		f, ok, err := rd.TryReadFrame()
		if err != nil || !ok {
			t.Fatalf("TryReadFrame ok=%v err=%v", ok, err)
		}
		if mustU64(t, f.Payload) != want {
			t.Fatalf("pipelined frame key mismatch")
		}
	}
	if _, ok, err := rd.TryReadFrame(); ok || err != nil {
		t.Fatalf("TryReadFrame on empty buffer: ok=%v err=%v", ok, err)
	}
	if rd.Buffered() != 0 {
		t.Fatalf("Buffered=%d after draining", rd.Buffered())
	}
}

type oneShotReader struct {
	b    []byte
	done bool
}

func (o *oneShotReader) Read(p []byte) (int, error) {
	if o.done {
		panic("protocol: read past the first burst")
	}
	o.done = true
	return copy(p, o.b), nil
}

// TestReaderErrors: desync and truncation produce errors, never panics,
// and errors are sticky.
func TestReaderErrors(t *testing.T) {
	// Zero code byte.
	rd := NewReader(bytes.NewReader([]byte{0, 1, 0, 0xff}))
	if _, err := rd.ReadFrame(); err == nil {
		t.Fatal("zero code accepted")
	}
	if _, err := rd.ReadFrame(); err == nil {
		t.Fatal("error was not sticky")
	}
	if _, ok, err := rd.TryReadFrame(); ok || err == nil {
		t.Fatal("TryReadFrame ignored the sticky error")
	}

	// Header truncated mid-frame.
	rd = NewReader(bytes.NewReader([]byte{byte(OpGet), 8}))
	if _, err := rd.ReadFrame(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated header: got %v, want ErrUnexpectedEOF", err)
	}
	// Payload truncated mid-frame.
	rd = NewReader(bytes.NewReader([]byte{byte(OpGet), 8, 0, 1, 2, 3}))
	if _, err := rd.ReadFrame(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated payload: got %v, want ErrUnexpectedEOF", err)
	}
}

// TestValidateRequest covers the per-op size table and the bytes ops'
// key-length consistency checks.
func TestValidateRequest(t *testing.T) {
	cases := []struct {
		op      Op
		payload []byte
		ok      bool
		tag     string
	}{
		{OpGet, make([]byte, 8), true, "get"},
		{OpGet, make([]byte, 9000), false, "oversized get"},
		{OpGet, nil, false, "empty get"},
		{OpSet, make([]byte, 16), true, "set"},
		{OpSet, make([]byte, 8), false, "short set"},
		{OpDel, make([]byte, 8), true, "del"},
		{OpLen, nil, true, "len"},
		{OpLen, make([]byte, 1), false, "len with payload"},
		{OpStats, nil, true, "stats"},
		{OpPing, nil, true, "empty ping"},
		{OpPing, make([]byte, MaxPayload), true, "max ping"},
		{Op(0x7f), nil, false, "unknown op"},
		{Op(0x0a), []byte{1}, false, "unassigned 0x0a"},
		{Op(0), nil, false, "zero op"},
		{Op(byte(StatusOK)), nil, false, "status code as op"},

		{OpGetB, AppendGetB(nil, []byte("k"))[HeaderSize:], true, "getb"},
		{OpGetB, AppendGetB(nil, nil)[HeaderSize:], true, "getb empty key"},
		{OpGetB, nil, false, "getb no prefix"},
		{OpGetB, []byte{1}, false, "getb short prefix"},
		{OpGetB, []byte{5, 0, 'a'}, false, "getb key length past payload"},
		{OpGetB, []byte{1, 0, 'a', 'x'}, false, "getb trailing bytes"},
		{OpDelB, AppendDelB(nil, []byte("key"))[HeaderSize:], true, "delb"},
		{OpSetB, AppendSetB(nil, []byte("k"), []byte("v"))[HeaderSize:], true, "setb"},
		{OpSetB, AppendSetB(nil, []byte("k"), nil)[HeaderSize:], true, "setb empty val"},
		{OpSetB, AppendSetB(nil, nil, nil)[HeaderSize:], true, "setb empty key and val"},
		{OpSetB, []byte{9, 0, 'a'}, false, "setb key length past payload"},
		{OpSetB, []byte{2}, false, "setb short prefix"},
	}
	for _, c := range cases {
		if err := ValidateRequest(c.op, c.payload); (err == nil) != c.ok {
			t.Errorf("%s: ValidateRequest(%s, %d bytes) = %v, want ok=%v", c.tag, c.op, len(c.payload), err, c.ok)
		}
	}
}

// TestBytesCodecRoundTrip: the GETB/SETB/DELB encoders and zero-copy
// decoders agree, including boundary sizes.
func TestBytesCodecRoundTrip(t *testing.T) {
	var b []byte
	key := bytes.Repeat([]byte("k"), 300) // key length needs both prefix bytes
	val := bytes.Repeat([]byte("v"), 1000)
	b = AppendGetB(b, key)
	b = AppendSetB(b, key, val)
	b = AppendDelB(b, nil)
	b = AppendSetB(b, nil, val)
	rd := NewReader(bytes.NewReader(b))

	f, err := rd.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if k, err := KeyB(f.Payload); err != nil || !bytes.Equal(k, key) {
		t.Fatalf("GETB decode: %v", err)
	}
	f, err = rd.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if k, v, err := KeyValB(f.Payload); err != nil || !bytes.Equal(k, key) || !bytes.Equal(v, val) {
		t.Fatalf("SETB decode: %v", err)
	}
	f, err = rd.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if k, err := KeyB(f.Payload); err != nil || len(k) != 0 {
		t.Fatalf("DELB empty-key decode: %q, %v", k, err)
	}
	f, err = rd.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if k, v, err := KeyValB(f.Payload); err != nil || len(k) != 0 || !bytes.Equal(v, val) {
		t.Fatalf("SETB empty-key decode: %q, %v", k, err)
	}

	// The largest legal SETB fills the frame exactly; one byte more
	// panics at encode time.
	maxVal := make([]byte, MaxPayload-2-len(key))
	AppendSetB(nil, key, maxVal)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized SETB did not panic")
		}
	}()
	AppendSetB(nil, key, append(maxVal, 0))
}

// TestReaderBufferBounded: the decode buffer never grows past MaxFrame,
// even for the largest legal frame.
func TestReaderBufferBounded(t *testing.T) {
	big := AppendPing(nil, bytes.Repeat([]byte{7}, MaxPayload))
	rd := NewReader(bytes.NewReader(big))
	f, err := rd.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Payload) != MaxPayload {
		t.Fatalf("payload %d, want %d", len(f.Payload), MaxPayload)
	}
	if len(rd.buf) > MaxFrame {
		t.Fatalf("reader buffer grew to %d, cap is %d", len(rd.buf), MaxFrame)
	}
}

// TestAppendFramePanics: an over-long payload is a programming error.
func TestAppendFramePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AppendFrame accepted an over-long payload")
		}
	}()
	AppendFrame(nil, byte(OpPing), make([]byte, MaxPayload+1))
}

// TestAppendErrRuneBoundary: truncation at errMsgCap backs up to a rune
// boundary instead of splitting a multi-byte sequence — the capped
// message stays valid UTF-8 whatever the input alignment.
func TestAppendErrRuneBoundary(t *testing.T) {
	// Slide a 3-byte rune across the cap boundary: some alignment puts
	// the boundary mid-rune.
	for pad := 0; pad < 4; pad++ {
		msg := strings.Repeat("x", errMsgCap-8+pad) + strings.Repeat("日", 8) // 日 = 3 bytes
		b := AppendErr(nil, msg)
		rd := NewReader(bytes.NewReader(b))
		f, err := rd.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Payload) > errMsgCap {
			t.Fatalf("pad %d: payload %d bytes exceeds cap", pad, len(f.Payload))
		}
		if !utf8.Valid(f.Payload) {
			t.Fatalf("pad %d: truncated payload is not valid UTF-8: %q", pad, f.Payload)
		}
		if !strings.HasPrefix(msg, string(f.Payload)) {
			t.Fatalf("pad %d: payload %q is not a prefix of the message", pad, f.Payload)
		}
		if len(f.Payload) < errMsgCap-utf8.UTFMax {
			t.Fatalf("pad %d: payload %d bytes, backed up more than one rune", pad, len(f.Payload))
		}
	}
	// Pure ASCII still fills the cap exactly.
	b := AppendErr(nil, strings.Repeat("e", errMsgCap+50))
	rd := NewReader(bytes.NewReader(b))
	f, err := rd.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Payload) != errMsgCap {
		t.Fatalf("ASCII payload %d bytes, want %d", len(f.Payload), errMsgCap)
	}
	// Short messages pass through untouched.
	if got := AppendErr(nil, "boom"); string(got[HeaderSize:]) != "boom" {
		t.Fatalf("short message mangled: %q", got)
	}
}
