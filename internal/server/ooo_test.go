package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"testing"
	"time"

	"hyaline"
	"hyaline/internal/protocol"
	"hyaline/internal/server"
)

// slowStore delays any batch containing slowKey before applying it —
// the lever the OOO conformance tests use to force a specific shard's
// batch to land last, scrambling reply completion deterministically.
type slowStore struct {
	server.Store
	slowKey uint64
	delay   time.Duration
}

func (s *slowStore) ApplyInto(dst []hyaline.Result, ops []hyaline.Op) []hyaline.Result {
	for _, op := range ops {
		if op.Key == s.slowKey {
			time.Sleep(s.delay)
			break
		}
	}
	return s.Store.ApplyInto(dst, ops)
}

// slowBytesStore is slowStore for the bytes family.
type slowBytesStore struct {
	server.BytesStore
	slowKey []byte
	delay   time.Duration
}

func (s *slowBytesStore) ApplyBytesInto(dst []hyaline.BytesResult, buf []byte, ops []hyaline.BytesOp) ([]hyaline.BytesResult, []byte) {
	for _, op := range ops {
		if bytes.Equal(op.Key, s.slowKey) {
			time.Sleep(s.delay)
			break
		}
	}
	return s.BytesStore.ApplyBytesInto(dst, buf, ops)
}

// oooOptions is the configuration the conformance tests pin down:
// 4-op runs rotating across 2 shards, replies completed out of order
// as each shard's batch lands, no coalesce latency budget.
func oooOptions() server.Options {
	return server.Options{
		OOO:            true,
		Coalesce:       true,
		CoalesceShards: 2,
		MaxPipeline:    4,
		CoalesceWindow: -1,
	}
}

// serve runs an already-built server on a loopback listener with the
// test lifecycle of testServer, returning its address.
func serve(t *testing.T, srv *server.Server) string {
	t.Helper()
	addr, shutdown := start(t, srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := shutdown(ctx); err != nil {
			t.Error(err)
		}
	})
	return addr
}

// start runs srv on a loopback listener and returns its address and the
// call that shuts it down: Shutdown under ctx, then Serve's return,
// which must be ErrServerClosed. A test that checks the drain itself
// calls shutdown once, instead of leaving it to serve's cleanup.
func start(t *testing.T, srv *server.Server) (string, func(context.Context) error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	return ln.Addr().String(), func(ctx context.Context) error {
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("Shutdown: %w", err)
		}
		if err := <-serveErr; err != server.ErrServerClosed {
			return fmt.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
		return nil
	}
}

const slowKey = uint64(1 << 40) // outside every test's data key range

// TestOOOScrambledCompletion is the OOO conformance test: a seq-framed
// window whose first run is deliberately delayed must complete
// shard-scrambled — later runs' replies first — while staying
// seq-complete with no duplicate echoes, and a follow-up GET window
// must return every value matched to its own seq.
func TestOOOScrambledCompletion(t *testing.T) {
	kv, err := hyaline.NewKV("hashmap", "hyaline", hyaline.KVOptions{
		MaxThreads: 4,
		ArenaCap:   1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := serve(t, server.New(&slowStore{Store: kv, slowKey: slowKey, delay: 100 * time.Millisecond}, oooOptions()))
	_, w, rd := dial(t, addr)
	if got := hello(t, w, rd, protocol.FlagSeq); got&protocol.FlagSeq == 0 {
		t.Fatalf("HELLO accepted %#x, no seq framing", got)
	}

	// keyOf maps a seq to its distinct key; seq 0 carries the slow key,
	// putting the delay in the window's FIRST run (seqs 0..3).
	keyOf := func(seq uint32) uint64 {
		if seq == 0 {
			return slowKey
		}
		return uint64(seq)
	}
	const window = 16 // 4 runs of MaxPipeline=4, rotating over 2 shards
	for seq := uint32(0); seq < window; seq++ {
		w.SetSeq(seq, keyOf(seq), keyOf(seq)*31+7)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	seen := make(map[uint32]bool, window)
	arrival := make([]uint32, 0, window)
	for i := 0; i < window; i++ {
		f := readFrame(t, rd)
		wantStatus(t, f, protocol.StatusOK) // fresh keys: every SET succeeds
		seq, rest, err := protocol.Seq(f.Payload)
		if err != nil || len(rest) != 0 {
			t.Fatalf("SET reply payload: seq err %v, %d trailing bytes", err, len(rest))
		}
		if seq >= window {
			t.Fatalf("echoed seq %d was never sent", seq)
		}
		if seen[seq] {
			t.Fatalf("duplicate echo of seq %d", seq)
		}
		seen[seq] = true
		arrival = append(arrival, seq)
	}
	if len(seen) != window {
		t.Fatalf("window incomplete: %d of %d seqs echoed", len(seen), window)
	}
	// The first run (seqs 0..3) slept 100ms while the other shard's
	// runs applied: the very first reply must come from a later run —
	// the scrambled completion this mode exists for.
	if arrival[0] < 4 {
		t.Fatalf("first reply is seq %d from the delayed run; completion was not out of order (arrival %v)",
			arrival[0], arrival)
	}
	inversions := 0
	for i := 1; i < len(arrival); i++ {
		if arrival[i] < arrival[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatalf("replies arrived fully in request order: %v", arrival)
	}

	// Second window: GETs under the same scrambling. Every value must
	// match the key derived from its OWN echoed seq — the proof replies
	// carry their request's result, not their arrival slot's.
	const base = uint32(100)
	for i := uint32(0); i < window; i++ {
		w.GetSeq(base+i, keyOf(i))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make(map[uint32]bool, window)
	for i := 0; i < window; i++ {
		f := readFrame(t, rd)
		wantStatus(t, f, protocol.StatusOK)
		seq, rest, err := protocol.Seq(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if seq < base || seq >= base+window || got[seq] {
			t.Fatalf("unexpected or duplicate GET echo seq %d", seq)
		}
		got[seq] = true
		v, err := protocol.U64(rest)
		if err != nil {
			t.Fatal(err)
		}
		if want := keyOf(seq-base)*31 + 7; v != want {
			t.Fatalf("seq %d returned %d, want %d: reply matched to the wrong request", seq, v, want)
		}
	}
}

// TestOOOMetaBarrier: meta frames stay ordering barriers in OOO mode —
// a PING's reply goes out only after every earlier data reply is on
// the wire, and before any later one, even when the earlier run is the
// slow one.
func TestOOOMetaBarrier(t *testing.T) {
	kv, err := hyaline.NewKV("hashmap", "hyaline", hyaline.KVOptions{
		MaxThreads: 4,
		ArenaCap:   1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := serve(t, server.New(&slowStore{Store: kv, slowKey: slowKey, delay: 50 * time.Millisecond}, oooOptions()))
	_, w, rd := dial(t, addr)
	hello(t, w, rd, protocol.FlagSeq)

	// One flush: a slow 4-op run, a PING, another 4-op run.
	w.SetSeq(100, slowKey, 1)
	w.SetSeq(101, 1, 1)
	w.SetSeq(102, 2, 2)
	w.SetSeq(103, 3, 3)
	w.Ping([]byte("barrier"))
	w.SetSeq(104, 4, 4)
	w.SetSeq(105, 5, 5)
	w.SetSeq(106, 6, 6)
	w.SetSeq(107, 7, 7)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 4; i++ {
		f := readFrame(t, rd)
		wantStatus(t, f, protocol.StatusOK)
		seq, _, err := protocol.Seq(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if seq < 100 || seq > 103 {
			t.Fatalf("reply %d before the PING barrier has seq %d, want 100..103", i, seq)
		}
	}
	f := readFrame(t, rd)
	wantStatus(t, f, protocol.StatusOK)
	if string(f.Payload) != "barrier" {
		t.Fatalf("5th reply is %q, want the PING echo", f.Payload)
	}
	for i := 0; i < 4; i++ {
		f := readFrame(t, rd)
		wantStatus(t, f, protocol.StatusOK)
		seq, _, err := protocol.Seq(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if seq < 104 || seq > 107 {
			t.Fatalf("reply %d after the PING barrier has seq %d, want 104..107", i, seq)
		}
	}
}

// TestOOOBytesScrambled is the bytes-family conformance test: GETB
// values under scrambled completion must match their own seq's key —
// full length, full content — proving reply encoding copied them out
// before the worker's batch buffers were reused for the next batch.
func TestOOOBytesScrambled(t *testing.T) {
	bkv, err := hyaline.NewKVBytes("blist", "hyaline", hyaline.KVOptions{
		MaxThreads:      4,
		ArenaCap:        1 << 16,
		BlobClassBudget: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	slow := []byte("slow-key-marker")
	srv := server.NewBytes(&slowBytesStore{BytesStore: bkv, slowKey: slow, delay: 100 * time.Millisecond}, oooOptions())
	_, w, rd := dial(t, serve(t, srv))
	hello(t, w, rd, protocol.FlagSeq)

	// Distinct keys and per-key values of distinct length and fill, so
	// an aliased or cross-wired buffer cannot pass the content check.
	const window = 16
	keyOf := func(i uint32) []byte {
		if i == 0 {
			return slow
		}
		k := make([]byte, 8)
		binary.BigEndian.PutUint64(k, uint64(i))
		return k
	}
	valOf := func(i uint32) []byte {
		return bytes.Repeat([]byte{byte(i*31 + 7)}, 32+int(i)*16)
	}
	for i := uint32(0); i < window; i++ {
		w.SetBSeq(i, keyOf(i), valOf(i))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint32]bool, window)
	for i := 0; i < window; i++ {
		f := readFrame(t, rd)
		wantStatus(t, f, protocol.StatusOK)
		seq, _, err := protocol.Seq(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if seq >= window || seen[seq] {
			t.Fatalf("unexpected or duplicate SETB echo seq %d", seq)
		}
		seen[seq] = true
	}

	const base = uint32(200)
	for i := uint32(0); i < window; i++ {
		w.GetBSeq(base+i, keyOf(i))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make(map[uint32]bool, window)
	firstSeq := uint32(0)
	for i := 0; i < window; i++ {
		f := readFrame(t, rd)
		wantStatus(t, f, protocol.StatusOK)
		seq, rest, err := protocol.Seq(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if seq < base || seq >= base+window || got[seq] {
			t.Fatalf("unexpected or duplicate GETB echo seq %d", seq)
		}
		got[seq] = true
		if i == 0 {
			firstSeq = seq
		}
		if want := valOf(seq - base); !bytes.Equal(rest, want) {
			t.Fatalf("GETB for seq %d returned %d bytes (first %#x), want %d bytes of %#x — value aliased or cross-wired",
				seq, len(rest), rest[:min(4, len(rest))], len(want), want[0])
		}
	}
	if firstSeq < base+4 {
		t.Fatalf("first GETB reply is seq %d from the delayed run; completion was not out of order", firstSeq)
	}
}
