// Package protocol is the wire format of the hyaline network server: a
// compact length-prefixed binary framing over any byte stream. A frame
// is a 3-byte header — one code byte and a little-endian uint16 payload
// length — followed by the payload. Requests carry an Op code, replies a
// Status code; the two ranges are disjoint, so a desynchronized peer is
// detected instead of misinterpreted.
//
// Replies are returned strictly in request order on each connection:
// the server coalesces a run of data commands on a connection into one
// batched KV apply but never reorders, so a client that
// pipelines N requests reads N replies back by FIFO counting, the i-th
// reply answering the i-th request. Replies carry no request id.
//
// The decoder (Reader) reads into one reused buffer and hands out
// payload slices aliasing that buffer — zero-copy, valid until the next
// read call. TryReadFrame parses only bytes already buffered, which is
// what lets a server drain a whole pipelined burst with a single read
// syscall. The encoder side is a family of append functions plus a thin
// buffered Writer, so request and reply bytes are built in place and
// written with one syscall per pipeline window.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"unicode/utf8"
)

// Frame layout constants.
const (
	// HeaderSize is the fixed frame prefix: code byte + uint16 length.
	HeaderSize = 3
	// MaxPayload is the largest payload one frame can carry (the length
	// field is a uint16).
	MaxPayload = 1<<16 - 1
	// MaxFrame bounds a whole frame; a Reader's buffer never grows past
	// this, so a hostile length prefix cannot balloon allocation.
	MaxFrame = HeaderSize + MaxPayload
	// MaxPipelineWindow bounds how many requests a closed-loop client
	// may keep in flight per round trip: the whole window is written
	// before any reply is read, so it must comfortably fit the socket
	// buffers in both directions or client and server deadlock against
	// each other. Shared by the load generator and the bench harness.
	MaxPipelineWindow = 4096
)

// Op is a request code. The zero byte is deliberately invalid: an
// all-zeros stream (a common desync or half-open artifact) errors on the
// first frame instead of being parsed as an operation.
type Op byte

const (
	// OpPing echoes its payload back; a liveness and framing check.
	OpPing Op = 0x01
	// OpGet looks a key up. Payload: key uint64.
	OpGet Op = 0x02
	// OpSet inserts key→val, failing if the key exists (the KV's Insert
	// semantics). Payload: key uint64, val uint64.
	OpSet Op = 0x03
	// OpDel removes a key, failing if absent. Payload: key uint64.
	OpDel Op = 0x04
	// OpLen asks for the entry count. Empty payload.
	OpLen Op = 0x05
	// OpStats asks for the server's Stats snapshot. Empty payload.
	OpStats Op = 0x06

	// The bytes ops carry variable-length []byte keys and values for a
	// KVBytes-backed server. Their payloads start with a little-endian
	// uint16 key length, then the key; SETB's value is the remainder of
	// the payload (the frame header already bounds it, so the value
	// needs no second length prefix). An empty key is legal — the
	// length prefix is what makes it expressible.

	// OpGetB looks a bytes key up. Payload: klen u16, key.
	// Reply: StatusOK with the value as payload, or StatusNil.
	OpGetB Op = 0x07
	// OpSetB inserts key→val, failing if the key exists. Payload:
	// klen u16, key, val (rest of payload).
	OpSetB Op = 0x08
	// OpDelB removes a bytes key, failing if absent. Payload: klen u16,
	// key.
	OpDelB Op = 0x09
)

// IsData reports whether the op is a data command (one that joins a
// batched apply run), as opposed to a meta command (PING/LEN/STATS).
func (o Op) IsData() bool {
	switch o {
	case OpGet, OpSet, OpDel, OpGetB, OpSetB, OpDelB:
		return true
	}
	return false
}

// String names the op for diagnostics.
func (o Op) String() string {
	switch o {
	case OpPing:
		return "PING"
	case OpGet:
		return "GET"
	case OpSet:
		return "SET"
	case OpDel:
		return "DEL"
	case OpLen:
		return "LEN"
	case OpStats:
		return "STATS"
	case OpGetB:
		return "GETB"
	case OpSetB:
		return "SETB"
	case OpDelB:
		return "DELB"
	}
	return fmt.Sprintf("Op(0x%02x)", byte(o))
}

// Status is a reply code. The range is disjoint from Op (high bit set).
type Status byte

const (
	// StatusOK reports success; GET/LEN/STATS/PING replies carry a
	// payload, SET/DEL replies are empty.
	StatusOK Status = 0x80
	// StatusNil reports a clean miss: GET of an absent key, SET of an
	// existing one, DEL of an absent one. Empty payload.
	StatusNil Status = 0x81
	// StatusErr reports a request error; the payload is a human-readable
	// message. The server closes the connection after sending it, since
	// a malformed request leaves no trustworthy framing to resume from.
	StatusErr Status = 0x82
)

// String names the status for diagnostics.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNil:
		return "NIL"
	case StatusErr:
		return "ERR"
	}
	return fmt.Sprintf("Status(0x%02x)", byte(s))
}

// ValidateRequest checks that a request frame's payload is structurally
// valid for its op: exact lengths for the fixed-size ops, a consistent
// key-length prefix for the bytes ops. The Reader is content-agnostic;
// servers call this on every decoded frame, so a GET with a 9000-byte
// payload (an oversized frame with intact framing) errors instead of
// being sliced blindly. It takes the payload itself rather than its
// length because the bytes ops cannot be validated from the length
// alone.
func ValidateRequest(op Op, payload []byte) error {
	want := -1
	switch op {
	case OpGet, OpDel:
		want = 8
	case OpSet:
		want = 16
	case OpLen, OpStats:
		want = 0
	case OpPing:
		return nil // any payload; it is echoed back
	case OpGetB, OpDelB:
		_, err := KeyB(payload)
		return err
	case OpSetB:
		_, _, err := KeyValB(payload)
		return err
	default:
		return fmt.Errorf("protocol: unknown op 0x%02x", byte(op))
	}
	if len(payload) != want {
		return fmt.Errorf("protocol: %s frame with %d-byte payload, want %d", op, len(payload), want)
	}
	return nil
}

// ErrFraming marks a violation of the frame format itself (as opposed
// to an I/O error on the underlying stream): after one there is no
// trustworthy boundary to resume parsing from. A Reader wraps it, and
// like every Reader error it is sticky, so a server can tell "answer
// ERR, then close" from "the peer went away" with errors.Is — whether
// the junk arrived in the same TCP segment as the frames before it or
// in its own.
var ErrFraming = errors.New("protocol: framing error")

// Frame is one decoded frame. Payload aliases the Reader's internal
// buffer: it is valid until the next ReadFrame/TryReadFrame call and
// must be copied to outlive it.
type Frame struct {
	Code    byte // an Op in requests, a Status in replies
	Payload []byte
}

// Reader is a streaming frame decoder over one byte stream. It is not
// safe for concurrent use; a connection has exactly one reader.
type Reader struct {
	src  io.Reader
	buf  []byte
	r, w int // buf[r:w] holds read-but-unconsumed bytes
	err  error
}

// readerBufSize is the initial decode buffer; it grows on demand up to
// MaxFrame and never beyond.
const readerBufSize = 4096

// NewReader decodes frames from src.
func NewReader(src io.Reader) *Reader {
	return &Reader{src: src, buf: make([]byte, readerBufSize)}
}

// Buffered returns how many bytes have been read from the stream but not
// yet consumed as frames.
func (rd *Reader) Buffered() int { return rd.w - rd.r }

// Reset discards any buffered bytes and any sticky error and redirects
// the Reader to decode from src, keeping the grown internal buffer. It
// lets a decoder be reused across connections (or across replayed
// pipeline windows) without reallocating.
func (rd *Reader) Reset(src io.Reader) {
	rd.src = src
	rd.r, rd.w = 0, 0
	rd.err = nil
}

// ClearError clears a sticky read error so decoding can resume on the
// same stream, keeping all buffered bytes and the read position. It is
// only safe for errors that leave the stream well-framed — a read
// deadline expiring mid-accumulation (the bytes read so far stay
// buffered; ensure never consumes partial frames) — and exists for
// event-driven servers that probe a connection under a deadline and
// re-park it on timeout. Clearing a framing error (desync, EOF) just
// reproduces it.
func (rd *Reader) ClearError() { rd.err = nil }

// ReadFrame decodes the next frame, blocking on the underlying stream as
// needed. A clean close at a frame boundary returns io.EOF; mid-frame it
// returns io.ErrUnexpectedEOF; a malformed header wraps ErrFraming.
// Errors are sticky.
func (rd *Reader) ReadFrame() (Frame, error) {
	if err := rd.ensure(HeaderSize); err != nil {
		return Frame{}, err
	}
	code, n, err := rd.header()
	if err != nil {
		return Frame{}, err
	}
	if err := rd.ensure(HeaderSize + n); err != nil {
		return Frame{}, err
	}
	return rd.take(code, n), nil
}

// TryReadFrame decodes a frame from already-buffered bytes only — it
// never touches the underlying stream. It returns ok=false (and no
// error) when the buffer does not hold a complete frame; combined with
// ReadFrame this lets a server handle a pipelined burst frame by frame
// while issuing one read syscall per burst.
func (rd *Reader) TryReadFrame() (Frame, bool, error) {
	if rd.err != nil {
		return Frame{}, false, rd.err
	}
	if rd.Buffered() < HeaderSize {
		return Frame{}, false, nil
	}
	code, n, err := rd.header()
	if err != nil {
		return Frame{}, false, err
	}
	if rd.Buffered() < HeaderSize+n {
		return Frame{}, false, nil
	}
	return rd.take(code, n), true, nil
}

func (rd *Reader) header() (byte, int, error) {
	code := rd.buf[rd.r]
	if code == 0 {
		rd.err = fmt.Errorf("%w: zero frame code (stream desynchronized?)", ErrFraming)
		return 0, 0, rd.err
	}
	n := int(binary.LittleEndian.Uint16(rd.buf[rd.r+1 : rd.r+3]))
	return code, n, nil
}

func (rd *Reader) take(code byte, n int) Frame {
	p := rd.buf[rd.r+HeaderSize : rd.r+HeaderSize+n]
	rd.r += HeaderSize + n
	return Frame{Code: code, Payload: p}
}

// ensure makes buf[r:w] at least n bytes long, compacting and growing
// the buffer as needed. n never exceeds MaxFrame (the header length
// field cannot express more), so the buffer is bounded for any input.
func (rd *Reader) ensure(n int) error {
	if rd.err != nil {
		return rd.err
	}
	if rd.w-rd.r >= n {
		return nil
	}
	if rd.r > 0 {
		copy(rd.buf, rd.buf[rd.r:rd.w])
		rd.w -= rd.r
		rd.r = 0
	}
	if len(rd.buf) < n {
		newCap := 2 * len(rd.buf)
		if newCap < n {
			newCap = n
		}
		if newCap > MaxFrame {
			newCap = MaxFrame
		}
		nb := make([]byte, newCap)
		copy(nb, rd.buf[:rd.w])
		rd.buf = nb
	}
	for rd.w-rd.r < n {
		m, err := rd.src.Read(rd.buf[rd.w:])
		rd.w += m
		if rd.w-rd.r >= n {
			return nil // got what we need; a trailing error resurfaces on the next read
		}
		if err != nil {
			if err == io.EOF && rd.w > rd.r {
				err = io.ErrUnexpectedEOF
			}
			rd.err = err
			return err
		}
		if m == 0 {
			rd.err = io.ErrNoProgress
			return rd.err
		}
	}
	return nil
}

// --- Encoding ---

func appendHeader(b []byte, code byte, n int) []byte {
	if n > MaxPayload {
		panic(fmt.Sprintf("protocol: %d-byte payload exceeds MaxPayload (%d)", n, MaxPayload))
	}
	return append(b, code, byte(n), byte(n>>8))
}

// AppendFrame appends one complete frame with an explicit payload.
// Panics when the payload exceeds MaxPayload (a programming error: the
// fixed-size request and reply constructors below cannot reach it).
func AppendFrame(b []byte, code byte, payload []byte) []byte {
	b = appendHeader(b, code, len(payload))
	return append(b, payload...)
}

func appendU64Frame(b []byte, code byte, v uint64) []byte {
	b = appendHeader(b, code, 8)
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendPing appends a PING request echoing payload.
func AppendPing(b, payload []byte) []byte { return AppendFrame(b, byte(OpPing), payload) }

// AppendGet appends a GET request.
func AppendGet(b []byte, key uint64) []byte { return appendU64Frame(b, byte(OpGet), key) }

// AppendSet appends a SET request.
func AppendSet(b []byte, key, val uint64) []byte {
	b = appendHeader(b, byte(OpSet), 16)
	b = binary.LittleEndian.AppendUint64(b, key)
	return binary.LittleEndian.AppendUint64(b, val)
}

// AppendDel appends a DEL request.
func AppendDel(b []byte, key uint64) []byte { return appendU64Frame(b, byte(OpDel), key) }

func appendKeyB(b []byte, op Op, key []byte, extra int) []byte {
	n := 2 + len(key) + extra
	if n > MaxPayload {
		panic(fmt.Sprintf("protocol: %s payload of %d bytes exceeds MaxPayload (%d)", op, n, MaxPayload))
	}
	b = appendHeader(b, byte(op), n)
	b = append(b, byte(len(key)), byte(len(key)>>8))
	return append(b, key...)
}

// AppendGetB appends a GETB request. Panics when the key exceeds what a
// frame can carry (MaxPayload minus the 2-byte length prefix).
func AppendGetB(b, key []byte) []byte { return appendKeyB(b, OpGetB, key, 0) }

// AppendSetB appends a SETB request. Panics when key and val together
// exceed a frame's payload.
func AppendSetB(b, key, val []byte) []byte {
	b = appendKeyB(b, OpSetB, key, len(val))
	return append(b, val...)
}

// AppendDelB appends a DELB request.
func AppendDelB(b, key []byte) []byte { return appendKeyB(b, OpDelB, key, 0) }

// AppendLen appends a LEN request.
func AppendLen(b []byte) []byte { return appendHeader(b, byte(OpLen), 0) }

// AppendStats appends a STATS request.
func AppendStats(b []byte) []byte { return appendHeader(b, byte(OpStats), 0) }

// AppendOK appends an empty StatusOK reply (SET/DEL success).
func AppendOK(b []byte) []byte { return appendHeader(b, byte(StatusOK), 0) }

// AppendNil appends a StatusNil reply (GET miss, SET exists, DEL absent).
func AppendNil(b []byte) []byte { return appendHeader(b, byte(StatusNil), 0) }

// AppendValue appends a StatusOK reply carrying one uint64 (GET hit,
// LEN).
func AppendValue(b []byte, v uint64) []byte { return appendU64Frame(b, byte(StatusOK), v) }

// AppendValueB appends a StatusOK reply carrying a byte value (GETB
// hit). The value is the whole payload; no length prefix is needed.
func AppendValueB(b, val []byte) []byte { return AppendFrame(b, byte(StatusOK), val) }

// AppendPingReply appends the StatusOK echo of a PING.
func AppendPingReply(b, payload []byte) []byte { return AppendFrame(b, byte(StatusOK), payload) }

// errMsgCap bounds the message carried by an error reply.
const errMsgCap = 256

// AppendErr appends a StatusErr reply carrying msg (truncated to a
// sane cap; the wire is not a log file). Truncation backs up to a rune
// boundary so a multi-byte rune is dropped whole, never split into a
// trailing invalid sequence.
func AppendErr(b []byte, msg string) []byte {
	if len(msg) > errMsgCap {
		cut := errMsgCap
		for cut > errMsgCap-utf8.UTFMax && !utf8.RuneStart(msg[cut]) {
			cut--
		}
		msg = msg[:cut]
	}
	b = appendHeader(b, byte(StatusErr), len(msg))
	return append(b, msg...)
}

// U64 decodes an 8-byte payload (GET/DEL request key, GET/LEN reply).
func U64(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("protocol: %d-byte payload where an 8-byte value is expected", len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}

// KeyVal decodes a 16-byte SET payload.
func KeyVal(p []byte) (key, val uint64, err error) {
	if len(p) != 16 {
		return 0, 0, fmt.Errorf("protocol: %d-byte payload where a 16-byte key/val pair is expected", len(p))
	}
	return binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint64(p[8:]), nil
}

// KeyB decodes a GETB/DELB payload: a u16 key length, the key, nothing
// after. The returned key aliases p (zero-copy) — for a payload handed
// out by a Reader, it obeys the Reader's buffer lifetime.
func KeyB(p []byte) ([]byte, error) {
	if len(p) < 2 {
		return nil, fmt.Errorf("protocol: %d-byte payload where a key-length prefix is expected", len(p))
	}
	n := int(binary.LittleEndian.Uint16(p))
	if len(p) != 2+n {
		return nil, fmt.Errorf("protocol: bytes-key payload is %d bytes, key length says %d", len(p), 2+n)
	}
	return p[2 : 2+n : 2+n], nil
}

// KeyValB decodes a SETB payload: a u16 key length, the key, then the
// value as the remainder. Both returned slices alias p (zero-copy).
func KeyValB(p []byte) (key, val []byte, err error) {
	if len(p) < 2 {
		return nil, nil, fmt.Errorf("protocol: %d-byte payload where a key-length prefix is expected", len(p))
	}
	n := int(binary.LittleEndian.Uint16(p))
	if len(p) < 2+n {
		return nil, nil, fmt.Errorf("protocol: bytes key/val payload is %d bytes, key length says at least %d", len(p), 2+n)
	}
	return p[2 : 2+n : 2+n], p[2+n:], nil
}

// --- STATS payload ---

// Stats is the STATS reply payload: the server's KV snapshot plus its
// connection gauges. All counters are cumulative since server start
// except Conns, Len, Live and Unreclaimed-derived values, which are
// point-in-time.
type Stats struct {
	Structure   string // data structure name
	Scheme      string // reclamation scheme name
	MaxThreads  uint64 // leased-tid bound of the KV (total across shards)
	Shards      uint64 // independent KV partitions (1 = unsharded)
	Conns       uint64 // currently open connections
	TotalConns  uint64 // connections accepted since start
	Ops         uint64 // operations served since start
	Len         uint64 // entries in the map (approximate under churn)
	Live        uint64 // arena nodes currently allocated
	Allocated   uint64 // cumulative nodes handed out
	Retired     uint64 // cumulative nodes retired
	Freed       uint64 // cumulative nodes freed
	Scans       uint64 // cumulative reclamation passes
	Goroutines  uint64 // goroutines in the server process
	Rejected    uint64 // connections refused at the MaxConns cap
	ActiveConns uint64 // open connections not parked in the poller
}

// Unreclaimed returns the retired-but-not-freed gauge, the robustness
// metric of the paper's Figures 9/12 exposed over the wire.
func (s Stats) Unreclaimed() uint64 { return s.Retired - s.Freed }

// statsNumFields is the count of fixed uint64 fields after the two
// length-prefixed name strings.
const statsNumFields = 14

// AppendStatsReply appends a StatusOK STATS reply. Panics if a name
// exceeds 255 bytes (scheme/structure names are short identifiers).
func AppendStatsReply(b []byte, s Stats) []byte {
	if len(s.Structure) > 255 || len(s.Scheme) > 255 {
		panic("protocol: stats name longer than 255 bytes")
	}
	n := 2 + len(s.Structure) + len(s.Scheme) + 8*statsNumFields
	b = appendHeader(b, byte(StatusOK), n)
	b = append(b, byte(len(s.Structure)))
	b = append(b, s.Structure...)
	b = append(b, byte(len(s.Scheme)))
	b = append(b, s.Scheme...)
	for _, v := range [statsNumFields]uint64{
		s.MaxThreads, s.Shards, s.Conns, s.TotalConns, s.Ops, s.Len,
		s.Live, s.Allocated, s.Retired, s.Freed,
		s.Scans, s.Goroutines, s.Rejected, s.ActiveConns,
	} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// ParseStats decodes a STATS reply payload.
func ParseStats(p []byte) (Stats, error) {
	var s Stats
	name := func() (string, bool) {
		if len(p) < 1 {
			return "", false
		}
		n := int(p[0])
		if len(p) < 1+n {
			return "", false
		}
		v := string(p[1 : 1+n])
		p = p[1+n:]
		return v, true
	}
	var ok bool
	if s.Structure, ok = name(); !ok {
		return Stats{}, fmt.Errorf("protocol: stats payload truncated in structure name")
	}
	if s.Scheme, ok = name(); !ok {
		return Stats{}, fmt.Errorf("protocol: stats payload truncated in scheme name")
	}
	if len(p) != 8*statsNumFields {
		return Stats{}, fmt.Errorf("protocol: stats payload has %d trailing bytes, want %d", len(p), 8*statsNumFields)
	}
	for _, dst := range [statsNumFields]*uint64{
		&s.MaxThreads, &s.Shards, &s.Conns, &s.TotalConns, &s.Ops, &s.Len,
		&s.Live, &s.Allocated, &s.Retired, &s.Freed,
		&s.Scans, &s.Goroutines, &s.Rejected, &s.ActiveConns,
	} {
		*dst = binary.LittleEndian.Uint64(p)
		p = p[8:]
	}
	return s, nil
}

// --- Writer ---

// Writer is a buffered frame encoder: the request (or reply) bytes of a
// pipeline window accumulate in one buffer and go out in a single write.
// Not safe for concurrent use.
type Writer struct {
	dst io.Writer
	buf []byte
}

// NewWriter encodes frames to dst.
func NewWriter(dst io.Writer) *Writer {
	return &Writer{dst: dst, buf: make([]byte, 0, readerBufSize)}
}

// Ping queues a PING request echoing payload.
func (w *Writer) Ping(payload []byte) { w.buf = AppendPing(w.buf, payload) }

// Get queues a GET request.
func (w *Writer) Get(key uint64) { w.buf = AppendGet(w.buf, key) }

// Set queues a SET request.
func (w *Writer) Set(key, val uint64) { w.buf = AppendSet(w.buf, key, val) }

// Del queues a DEL request.
func (w *Writer) Del(key uint64) { w.buf = AppendDel(w.buf, key) }

// GetB queues a GETB request.
func (w *Writer) GetB(key []byte) { w.buf = AppendGetB(w.buf, key) }

// SetB queues a SETB request.
func (w *Writer) SetB(key, val []byte) { w.buf = AppendSetB(w.buf, key, val) }

// DelB queues a DELB request.
func (w *Writer) DelB(key []byte) { w.buf = AppendDelB(w.buf, key) }

// Len queues a LEN request.
func (w *Writer) Len() { w.buf = AppendLen(w.buf) }

// Stats queues a STATS request.
func (w *Writer) Stats() { w.buf = AppendStats(w.buf) }

// Pending returns the buffered byte count.
func (w *Writer) Pending() int { return len(w.buf) }

// Flush writes the buffered frames in one call and resets the buffer.
func (w *Writer) Flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.dst.Write(w.buf)
	w.buf = w.buf[:0]
	return err
}
