package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

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

// TestSeqWindowInOrder: FIFO arrival (a conforming degenerate server)
// matches cleanly and completes.
func TestSeqWindowInOrder(t *testing.T) {
	var sw seqWindow
	sw.reset(100, 4)
	for i := 0; i < 4; i++ {
		idx, err := sw.match(100 + uint32(i))
		if err != nil {
			t.Fatalf("match(%d): %v", 100+i, err)
		}
		if idx != i {
			t.Fatalf("match(%d) index %d, want %d", 100+i, idx, i)
		}
	}
	if err := sw.done(); err != nil {
		t.Fatalf("done after full window: %v", err)
	}
}

// TestSeqWindowReordered: arbitrary arrival order is legal under
// FlagSeq; each echo must still map to its own request index.
func TestSeqWindowReordered(t *testing.T) {
	var sw seqWindow
	sw.reset(7, 5)
	for _, got := range []uint32{9, 7, 11, 8, 10} {
		idx, err := sw.match(got)
		if err != nil {
			t.Fatalf("match(%d): %v", got, err)
		}
		if want := int(got - 7); idx != want {
			t.Fatalf("match(%d) index %d, want %d", got, idx, want)
		}
	}
	if err := sw.done(); err != nil {
		t.Fatalf("done after reordered window: %v", err)
	}
}

// TestSeqWindowUnknown: a seq outside the outstanding range is a
// protocol violation, before and after the window partially fills.
func TestSeqWindowUnknown(t *testing.T) {
	var sw seqWindow
	sw.reset(10, 3)
	if _, err := sw.match(13); err == nil {
		t.Fatal("seq one past the window accepted")
	}
	if _, err := sw.match(9); err == nil {
		t.Fatal("seq one before the window accepted")
	}
	if _, err := sw.match(math.MaxUint32); err == nil {
		t.Fatal("far-away seq accepted")
	}
}

// TestSeqWindowDuplicate: the same seq echoed twice is an error even
// though it is inside the window.
func TestSeqWindowDuplicate(t *testing.T) {
	var sw seqWindow
	sw.reset(0, 2)
	if _, err := sw.match(1); err != nil {
		t.Fatalf("first match: %v", err)
	}
	if _, err := sw.match(1); err == nil {
		t.Fatal("duplicate seq accepted")
	}
}

// TestSeqWindowIncomplete: running out of replies with seqs pending is
// detected by done.
func TestSeqWindowIncomplete(t *testing.T) {
	var sw seqWindow
	sw.reset(50, 3)
	if _, err := sw.match(51); err != nil {
		t.Fatalf("match: %v", err)
	}
	if err := sw.done(); err == nil {
		t.Fatal("incomplete window passed done")
	}
}

// TestSeqWindowWrap: the u32 seq counter wrapping mid-window must not
// confuse the range check (unsigned subtraction handles it).
func TestSeqWindowWrap(t *testing.T) {
	var sw seqWindow
	base := uint32(math.MaxUint32 - 1) // window covers MaxUint32-1, MaxUint32, 0, 1
	sw.reset(base, 4)
	for _, got := range []uint32{0, math.MaxUint32 - 1, 1, math.MaxUint32} {
		idx, err := sw.match(got)
		if err != nil {
			t.Fatalf("match(%d): %v", got, err)
		}
		if want := int(got - base); idx != want {
			t.Fatalf("match(%d) index %d, want %d", got, idx, want)
		}
	}
	if err := sw.done(); err != nil {
		t.Fatalf("done after wrapped window: %v", err)
	}
}

// TestPayloadEncodes: the one closed loop encodes through payload, so
// each family × framing must put exactly the frame on the wire that the
// protocol's own encoder produces for the same key, seq and value.
func TestPayloadEncodes(t *testing.T) {
	const key, seq = uint64(0x0102030405060708), uint32(41)
	kb := binary.BigEndian.AppendUint64(nil, key)
	val := make([]byte, 64)
	fillValue(val, key)
	want := map[[2]bool][]byte{ // {bytes, seq} → SET, GET, DEL
		{false, false}: protocol.AppendDel(protocol.AppendGet(protocol.AppendSet(nil, key, key*31+7), key), key),
		{false, true}:  protocol.AppendDelSeq(protocol.AppendGetSeq(protocol.AppendSetSeq(nil, seq, key, key*31+7), seq, key), seq, key),
		{true, false}:  protocol.AppendDelB(protocol.AppendGetB(protocol.AppendSetB(nil, kb, val), kb), kb),
		{true, true}:   protocol.AppendDelBSeq(protocol.AppendGetBSeq(protocol.AppendSetBSeq(nil, seq, kb, val), seq, kb), seq, kb),
	}
	for mode, frames := range want {
		var wire bytes.Buffer
		w := protocol.NewWriter(&wire)
		pl := newPayload(mode[0], mode[1], vsDist{min: 64, max: 64})
		pl.set(w, rand.New(rand.NewSource(1)), seq, key)
		pl.get(w, seq, key)
		pl.del(w, seq, key)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire.Bytes(), frames) {
			t.Errorf("bytes=%v seq=%v: encoded %x, want %x", mode[0], mode[1], wire.Bytes(), frames)
		}
	}
}

// TestPayloadCheckHit: a hit carrying the key's own pattern passes, any
// other content is reported as corruption, in both families.
func TestPayloadCheckHit(t *testing.T) {
	const key = uint64(12345)
	u64 := newPayload(false, false, vsDist{})
	if err := u64.checkHit(binary.LittleEndian.AppendUint64(nil, key*31+7), key); err != nil {
		t.Errorf("uint64 hit with the right value: %v", err)
	}
	if err := u64.checkHit(binary.LittleEndian.AppendUint64(nil, key*31+8), key); err == nil {
		t.Error("uint64 hit with a foreign value accepted")
	}
	if err := u64.checkHit([]byte{1, 2, 3}, key); err == nil {
		t.Error("uint64 hit with a short payload accepted")
	}
	bts := newPayload(true, false, vsDist{min: 16, max: 16})
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
