package protocol

import (
	"bytes"
	"io"
	"testing"
)

// TestPipelineWindowZeroAllocs guards the wire format's steady-state
// allocation behaviour: encoding a full pipeline window of mixed
// requests (plain and bytes ops), serving it — decode,
// validate, build every reply — and decoding the replies back must not
// touch the heap once the buffers have warmed up. The server's
// per-connection hot loop and the load generator both lean on this; a
// stray fmt.Sprintf or slice escape in the frame paths shows up here as
// a test failure instead of a profile regression.
func TestPipelineWindowZeroAllocs(t *testing.T) {
	const depth = 12 // mixed ops below are queued twice: a 2×6 window
	key := []byte("bytes-key")
	val := []byte("bytes-value-payload")

	var wire bytes.Buffer // encoded requests
	w := NewWriter(&wire)
	var src bytes.Reader // replays wire through the Reader
	rd := NewReader(&src)
	reply := make([]byte, 0, 4096) // encoded replies
	var rsrc bytes.Reader
	rrd := NewReader(&rsrc)

	fail := "" // deferred to keep t.Errorf's allocations out of the measurement
	roundTrip := func() {
		// Client side: queue one window, flush once.
		wire.Reset()
		for i := uint64(0); i < depth/6; i++ {
			w.Set(i, checksum(i))
			w.Get(i)
			w.Del(i)
			w.SetB(key, val)
			w.GetB(key)
			w.Ping(key)
		}
		if err := w.Flush(); err != nil {
			fail = "flush failed"
			return
		}

		// Server side: decode each frame and build its reply, in the
		// exact op order queued above.
		src.Reset(wire.Bytes())
		rd.Reset(&src)
		reply = reply[:0]
		for i := 0; ; i++ {
			f, err := rd.ReadFrame()
			if err == io.EOF {
				if i != depth {
					fail = "short window"
				}
				break
			}
			if err != nil {
				fail = "request decode failed"
				return
			}
			switch i % 6 {
			case 0: // SET
				k, v, err := KeyVal(f.Payload)
				if err != nil || checksum(k) != v {
					fail = "SET payload mismatch"
					return
				}
				reply = AppendOK(reply)
			case 1: // GET
				k, err := U64(f.Payload)
				if err != nil {
					fail = "GET payload mismatch"
					return
				}
				reply = AppendValue(reply, checksum(k))
			case 2: // DEL
				if _, err := U64(f.Payload); err != nil {
					fail = "DEL payload mismatch"
					return
				}
				reply = AppendNil(reply)
			case 3: // SETB
				if err := ValidateRequest(OpSetB, f.Payload); err != nil {
					fail = "SETB payload invalid"
					return
				}
				k, v, err := KeyValB(f.Payload)
				if err != nil || !bytes.Equal(k, key) || !bytes.Equal(v, val) {
					fail = "SETB payload mismatch"
					return
				}
				reply = AppendOK(reply)
			case 4: // GETB
				k, err := KeyB(f.Payload)
				if err != nil || !bytes.Equal(k, key) {
					fail = "GETB payload mismatch"
					return
				}
				reply = AppendValueB(reply, val)
			case 5: // PING
				reply = AppendPingReply(reply, f.Payload)
			}
		}

		// Client side again: decode the whole reply window.
		rsrc.Reset(reply)
		rrd.Reset(&rsrc)
		for i := 0; ; i++ {
			f, err := rrd.ReadFrame()
			if err == io.EOF {
				if i != depth {
					fail = "short reply window"
				}
				return
			}
			if err != nil || Status(f.Code) == StatusErr {
				fail = "reply decode failed"
				return
			}
		}
	}

	allocs := testing.AllocsPerRun(100, roundTrip)
	if fail != "" {
		t.Fatal(fail)
	}
	if allocs != 0 {
		t.Fatalf("pipeline window of %d requests allocates %.1f times per round trip, want 0", depth, allocs)
	}
}

// checksum mirrors the value invariant the conformance suites use; here
// it just gives the window deterministic, checkable values.
func checksum(key uint64) uint64 { return key*31 + 7 }

// TestReaderReset: a Reader with a sticky error (even a real desync, not
// just EOF) must come back to life on Reset and decode from the new
// source with its old buffered bytes discarded.
func TestReaderReset(t *testing.T) {
	bad := bytes.NewReader([]byte{0x00, 0x00, 0x00}) // zero code: desync
	rd := NewReader(bad)
	if _, err := rd.ReadFrame(); err == nil {
		t.Fatal("zero frame code must error")
	}
	if _, err := rd.ReadFrame(); err == nil {
		t.Fatal("Reader error must be sticky")
	}

	good := AppendGet(nil, 42)
	rd.Reset(bytes.NewReader(good))
	f, err := rd.ReadFrame()
	if err != nil {
		t.Fatalf("ReadFrame after Reset: %v", err)
	}
	if Op(f.Code) != OpGet {
		t.Fatalf("frame code %v, want GET", Op(f.Code))
	}
	if k, err := U64(f.Payload); err != nil || k != 42 {
		t.Fatalf("payload (%d, %v), want key 42", k, err)
	}
	if _, err := rd.ReadFrame(); err != io.EOF {
		t.Fatalf("clean end after Reset returned %v, want EOF", err)
	}
}
