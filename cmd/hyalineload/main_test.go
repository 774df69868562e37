package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net"
	"strings"
	"testing"

	"hyaline/internal/docflags"
	"hyaline/internal/hist"
	"hyaline/internal/protocol"
)

// TestParseMix: named mixes, strict custom percentages, and rejection
// of garbage (including trailing junk a lenient scanner would accept).
func TestParseMix(t *testing.T) {
	good := map[string]mix{
		"write":       {50, 50},
		"read":        {5, 5},
		"20/20/60":    {20, 20},
		"0/0/100":     {0, 0},
		" 10/ 10/ 80": {10, 10},
	}
	for in, want := range good {
		got, err := parseMix(in)
		if err != nil || got != want {
			t.Errorf("parseMix(%q) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	for _, in := range []string{
		"", "writeish", "20/20", "20/20/60/0", "20x/20/60", "0x14/20/60",
		"-10/50/60", "40/40/40", "33/33/33",
	} {
		if _, err := parseMix(in); err == nil {
			t.Errorf("parseMix(%q) accepted garbage", in)
		}
	}
}

// TestPayloadEncodes: the one closed loop encodes through payload, so
// each family must put exactly the frame on the wire that the
// protocol's own encoder produces for the same key and value.
func TestPayloadEncodes(t *testing.T) {
	const key = uint64(0x0102030405060708)
	kb := binary.BigEndian.AppendUint64(nil, key)
	val := make([]byte, 64)
	fillValue(val, key)
	want := map[bool][]byte{ // bytes → SET, GET, DEL
		false: protocol.AppendDel(protocol.AppendGet(protocol.AppendSet(nil, key, key*31+7), key), key),
		true:  protocol.AppendDelB(protocol.AppendGetB(protocol.AppendSetB(nil, kb, val), kb), kb),
	}
	for bytesMode, frames := range want {
		var wire bytes.Buffer
		w := protocol.NewWriter(&wire)
		pl := newPayload(bytesMode, vsDist{min: 64, max: 64})
		pl.set(w, rand.New(rand.NewSource(1)), key)
		pl.get(w, key)
		pl.del(w, key)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire.Bytes(), frames) {
			t.Errorf("bytes=%v: encoded %x, want %x", bytesMode, wire.Bytes(), frames)
		}
	}
}

// fakeServer answers windows of n requests on c as a server holding
// every key would — a GET hits with the key's value, a SET or DEL gets
// an empty OK — but sends each window's replies rotated by shift
// positions, and with hitAll answers a SET or DEL like a GET of its
// key. It returns when c closes.
func fakeServer(c net.Conn, n, shift int, hitAll bool) {
	rd := protocol.NewReader(c)
	replies := make([][]byte, n)
	for {
		for i := range replies {
			f, err := rd.ReadFrame()
			if err != nil {
				return
			}
			// Every request's payload starts with its key: a uint64, or a
			// 2-byte length and 8 big-endian bytes.
			switch op := protocol.Op(f.Code); {
			case op == protocol.OpGet || hitAll && (op == protocol.OpSet || op == protocol.OpDel):
				key := binary.LittleEndian.Uint64(f.Payload)
				replies[i] = protocol.AppendValue(nil, key*31+7)
			case op == protocol.OpGetB || hitAll:
				val := make([]byte, 16)
				fillValue(val, binary.BigEndian.Uint64(f.Payload[2:]))
				replies[i] = protocol.AppendValueB(nil, val)
			default:
				replies[i] = protocol.AppendOK(nil)
			}
		}
		var out []byte
		for i := range replies {
			out = append(out, replies[(i+shift)%n]...)
		}
		if _, err := c.Write(out); err != nil {
			return
		}
	}
}

// TestRoundTripChecksByPosition: replies are matched to requests by
// position alone, so a reply stream in step passes window after window,
// while the same stream shifted by one position, or one answering a SET
// or DEL with a value, fails naming the reply.
func TestRoundTripChecksByPosition(t *testing.T) {
	const pipeline, rounds = 16, 4
	cases := []struct {
		name   string
		shift  int
		hitAll bool
		ok     bool
	}{
		{"in step", 0, false, true},
		{"shifted by one", 1, false, false},
		{"SET and DEL answered with a value", 0, true, false},
	}
	for _, bytesMode := range []bool{false, true} {
		for _, c := range cases {
			cc, sc := net.Pipe()
			go fakeServer(sc, pipeline, c.shift, c.hitAll)
			var h hist.Hist
			cl := newClient(cc, 1, pipeline, mix{20, 20}, 1<<20, newPayload(bytesMode, vsDist{min: 16, max: 16}), &h)
			var err error
			for r := 0; r < rounds && err == nil; r++ {
				err = cl.roundTrip()
			}
			cc.Close()
			switch {
			case c.ok && err != nil:
				t.Errorf("bytes=%v %s: %v", bytesMode, c.name, err)
			case c.ok && h.Count() != rounds*pipeline:
				t.Errorf("bytes=%v %s: %d latency samples for %d replies", bytesMode, c.name, h.Count(), rounds*pipeline)
			case !c.ok && (err == nil || !strings.Contains(err.Error(), "reply ")):
				t.Errorf("bytes=%v %s: got %v, want an error naming the reply", bytesMode, c.name, err)
			}
		}
	}
}

// TestPayloadCheckHit: a hit carrying the key's own pattern passes, any
// other content is reported as corruption, in both families.
func TestPayloadCheckHit(t *testing.T) {
	const key = uint64(12345)
	u64 := newPayload(false, vsDist{})
	if err := u64.checkHit(binary.LittleEndian.AppendUint64(nil, key*31+7), key); err != nil {
		t.Errorf("uint64 hit with the right value: %v", err)
	}
	if err := u64.checkHit(binary.LittleEndian.AppendUint64(nil, key*31+8), key); err == nil {
		t.Error("uint64 hit with a foreign value accepted")
	}
	if err := u64.checkHit([]byte{1, 2, 3}, key); err == nil {
		t.Error("uint64 hit with a short payload accepted")
	}
	bts := newPayload(true, vsDist{min: 16, max: 16})
	val := make([]byte, 16)
	fillValue(val, key)
	if err := bts.checkHit(val, key); err != nil {
		t.Errorf("bytes hit with the key's fill pattern: %v", err)
	}
	val[7] ^= 0xFF
	if err := bts.checkHit(val, key); err == nil {
		t.Error("bytes hit with a corrupted byte accepted")
	}
}

// TestFlagValidation: a measurement window of zero or less is rejected
// with an error naming -duration, before any connection is dialled (the
// unbindable -addr makes a generator that accepted it fail at Dial, for
// a reason that does not name the flag).
func TestFlagValidation(t *testing.T) {
	for _, d := range []string{"0s", "-1s"} {
		args := []string{"-duration=" + d, "-addr=127.0.0.1:99999"}
		err := run(args)
		if err == nil {
			t.Fatalf("run(%v) accepted an empty measurement window", args)
		}
		if !strings.Contains(err.Error(), "-duration") {
			t.Fatalf("run(%v) error %q does not name -duration", args, err)
		}
	}
}

// TestREADMEFlags fails when the README passes hyalineload a flag that its flag
// set does not define.
func TestREADMEFlags(t *testing.T) {
	fs, _ := newFlags()
	docflags.Check(t, "../../README.md", fs)
}
