package server_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"hyaline"
	"hyaline/internal/protocol"
	"hyaline/internal/server"
)

// testBytesServer starts an in-process bytes-mode server on a loopback
// listener and tears it down with the test.
func testBytesServer(t *testing.T, scheme string, opts server.Options) (*hyaline.KVBytes, *server.Server, string) {
	t.Helper()
	kv, err := hyaline.NewKVBytes("blist", scheme, hyaline.KVOptions{
		MaxThreads:      4,
		ArenaCap:        1 << 16,
		BlobClassBudget: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	noLeaseAfter(t, kv)
	srv := server.NewBytes(kv, opts)
	addr, _ := serve(t, srv)
	return kv, srv, addr
}

// TestBytesRoundTrip walks the bytes commands over one connection,
// including empty keys and values and a large value.
func TestBytesRoundTrip(t *testing.T) {
	_, _, addr := testBytesServer(t, "hyaline", server.Options{})
	_, w, rd := dial(t, addr)

	big := bytes.Repeat([]byte("0123456789abcdef"), 1024) // 16 KiB
	w.SetB([]byte("k1"), []byte("value-one"))
	w.GetB([]byte("k1"))
	w.GetB([]byte("missing"))
	w.SetB([]byte("k1"), []byte("other")) // exists → NIL
	w.SetB([]byte("big"), big)
	w.GetB([]byte("big"))
	w.SetB([]byte{}, []byte{}) // empty key, empty value
	w.GetB(nil)
	w.DelB([]byte("k1"))
	w.DelB([]byte("k1")) // absent → NIL
	w.Len()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	wantStatus(t, readFrame(t, rd), protocol.StatusOK) // SETB k1
	f := readFrame(t, rd)                              // GETB k1
	wantStatus(t, f, protocol.StatusOK)
	if string(f.Payload) != "value-one" {
		t.Fatalf("GETB returned %q", f.Payload)
	}
	wantStatus(t, readFrame(t, rd), protocol.StatusNil) // GETB miss
	wantStatus(t, readFrame(t, rd), protocol.StatusNil) // SETB exists
	wantStatus(t, readFrame(t, rd), protocol.StatusOK)  // SETB big
	f = readFrame(t, rd)                                // GETB big
	wantStatus(t, f, protocol.StatusOK)
	if !bytes.Equal(f.Payload, big) {
		t.Fatalf("GETB big returned %d bytes, want %d", len(f.Payload), len(big))
	}
	wantStatus(t, readFrame(t, rd), protocol.StatusOK) // SETB empty
	f = readFrame(t, rd)                               // GETB empty key
	wantStatus(t, f, protocol.StatusOK)
	if len(f.Payload) != 0 {
		t.Fatalf("empty value came back as %q", f.Payload)
	}
	wantStatus(t, readFrame(t, rd), protocol.StatusOK)  // DELB
	wantStatus(t, readFrame(t, rd), protocol.StatusNil) // DELB absent
	f = readFrame(t, rd)                                // LEN
	wantStatus(t, f, protocol.StatusOK)
	if v, _ := protocol.U64(f.Payload); v != 2 {
		t.Fatalf("LEN returned %d, want 2", v)
	}
}

// TestBytesPipelinedModel streams windows of bytes commands with varied
// value sizes over one connection and checks every reply against a
// map[string][]byte model — single-client streams are deterministic.
func TestBytesPipelinedModel(t *testing.T) {
	_, _, addr := testBytesServer(t, "hyaline-1s", server.Options{MaxPipeline: 8})
	_, w, rd := dial(t, addr)

	rng := rand.New(rand.NewSource(2))
	model := map[string][]byte{}
	windows := 40
	if testing.Short() {
		windows = 10
	}
	type pred struct {
		status protocol.Status
		val    []byte
	}
	for wnd := 0; wnd < windows; wnd++ {
		n := 1 + rng.Intn(40) // crosses the MaxPipeline=8 batch boundary
		var expect []pred
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("key-%02d", rng.Intn(24))
			switch rng.Intn(3) {
			case 0:
				val := bytes.Repeat([]byte{byte(wnd + 1)}, rng.Intn(2048))
				w.SetB([]byte(key), val)
				if _, ok := model[key]; ok {
					expect = append(expect, pred{status: protocol.StatusNil})
				} else {
					model[key] = val
					expect = append(expect, pred{status: protocol.StatusOK})
				}
			case 1:
				w.DelB([]byte(key))
				if _, ok := model[key]; ok {
					delete(model, key)
					expect = append(expect, pred{status: protocol.StatusOK})
				} else {
					expect = append(expect, pred{status: protocol.StatusNil})
				}
			default:
				w.GetB([]byte(key))
				if v, ok := model[key]; ok {
					expect = append(expect, pred{status: protocol.StatusOK, val: v})
				} else {
					expect = append(expect, pred{status: protocol.StatusNil})
				}
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		for i, e := range expect {
			f := readFrame(t, rd)
			if protocol.Status(f.Code) != e.status {
				t.Fatalf("window %d op %d: status %s, want %s", wnd, i, protocol.Status(f.Code), e.status)
			}
			if e.status == protocol.StatusOK && e.val != nil && !bytes.Equal(f.Payload, e.val) {
				t.Fatalf("window %d op %d: value %d bytes, want %d", wnd, i, len(f.Payload), len(e.val))
			}
		}
	}
}

// TestBytesWrongFamily: uint64 data ops on a bytes server (and bytes
// ops on a uint64 server) are protocol errors, answered with ERR and a
// close — not silently misapplied.
func TestBytesWrongFamily(t *testing.T) {
	t.Run("uint64 op on bytes server", func(t *testing.T) {
		_, _, addr := testBytesServer(t, "epoch", server.Options{})
		_, w, rd := dial(t, addr)
		w.SetB([]byte("k"), []byte("v")) // well-formed prefix still answered
		w.Get(7)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		wantStatus(t, readFrame(t, rd), protocol.StatusOK)
		wantStatus(t, readFrame(t, rd), protocol.StatusErr)
		if _, err := rd.ReadFrame(); err == nil {
			t.Fatal("connection survived a wrong-family op")
		}
	})
	t.Run("bytes op on uint64 server", func(t *testing.T) {
		_, _, addr := testServer(t, "hashmap", "epoch", server.Options{})
		_, w, rd := dial(t, addr)
		w.Set(1, 10)
		w.GetB([]byte("key"))
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		wantStatus(t, readFrame(t, rd), protocol.StatusOK)
		wantStatus(t, readFrame(t, rd), protocol.StatusErr)
		if _, err := rd.ReadFrame(); err == nil {
			t.Fatal("connection survived a wrong-family op")
		}
	})
}

// TestBytesMalformedFrame: structurally broken bytes frames get the
// ERR-then-close treatment with earlier requests still answered.
func TestBytesMalformedFrame(t *testing.T) {
	cases := []struct {
		name string
		junk []byte
	}{
		{"key length past payload", protocol.AppendFrame(nil, byte(protocol.OpGetB), []byte{9, 0, 'a'})},
		{"getb trailing bytes", protocol.AppendFrame(nil, byte(protocol.OpGetB), []byte{1, 0, 'a', 'x'})},
		{"setb short prefix", protocol.AppendFrame(nil, byte(protocol.OpSetB), []byte{3})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, addr := testBytesServer(t, "hp", server.Options{})
			conn, w, rd := dial(t, addr)
			w.SetB([]byte("pre"), []byte("fix"))
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(c.junk); err != nil {
				t.Fatal(err)
			}
			wantStatus(t, readFrame(t, rd), protocol.StatusOK)
			f := readFrame(t, rd)
			wantStatus(t, f, protocol.StatusErr)
			if len(f.Payload) == 0 {
				t.Fatal("ERR reply with empty message")
			}
			if _, err := rd.ReadFrame(); err == nil {
				t.Fatal("connection survived a malformed frame")
			}
		})
	}
}
