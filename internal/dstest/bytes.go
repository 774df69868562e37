// Bytes-structure conformance: the []byte-payload twin of the uint64
// suite. Values live in variable-size blob slabs owned by their node,
// so beyond the usual linearizability and use-after-free checks the
// bytes phases pin the blob ledger to the node ledger: a blist node owns
// exactly two blobs (key and value) from Alloc to Free, so the live
// blob count must equal exactly twice the live node count — any drift
// is a leaked or double-freed blob. ConcurrentChurnBytes is the churn
// engine (churn.go) over this family.
package dstest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"hyaline/internal/arena"
	"hyaline/internal/smr"
)

// BytesMap is the common shape of the bytes-valued structures (mirrors
// ds.BytesMap).
type BytesMap interface {
	Insert(tid int, key, val []byte) bool
	Delete(tid int, key []byte) bool
	Get(tid int, key []byte, dst []byte) ([]byte, bool)
	Len() int
}

// BytesFactory builds a fresh bytes structure over the given arena
// (which has blobs enabled) and tracker.
type BytesFactory func(a *arena.Arena, tr smr.Tracker) BytesMap

// bytesBlobBudget sizes each blob class for the conformance churn.
const bytesBlobBudget = 1 << 21

// bytesKey encodes the numeric key the churn models use, injectively,
// in three shapes by k mod 3, so that a structure comparing keys by a
// fixed-width prefix first (the bytes list keeps 8 bytes in the node)
// meets every case under churn: the 8-byte big-endian form; the same
// without its leading zero bytes, shorter than the prefix; and a
// 10-byte key whose first 8 bytes it shares with up to three siblings
// and with the 8-byte key they spell, so only the full compare can
// order them.
func bytesKey(k uint64) []byte {
	b := make([]byte, 8, 10)
	binary.BigEndian.PutUint64(b, k)
	switch k % 3 {
	case 1:
		b = bytes.TrimLeft(b, "\x00")
	case 2:
		binary.BigEndian.PutUint64(b, k/12*12)
		b = binary.BigEndian.AppendUint16(b, uint16(k)) // siblings differ by < 12
	}
	return b
}

// bytesVal derives the value invariant for a key: a run of the fill
// byte checksum(key) whose length is a function of the key, spanning
// several blob size classes. A Get observing any other content or
// length has read a recycled or poisoned blob.
func bytesVal(k uint64) []byte {
	n := int(k%300) + 1
	return bytes.Repeat([]byte{byte(checksum(k))}, n)
}

// checkBytesVal returns "" when got is k's value, and otherwise
// describes what was read (from the first byte that differs) and what
// was due.
func checkBytesVal(k uint64, got []byte) (read, due string) {
	want := bytesVal(k)
	if bytes.Equal(got, want) {
		return "", ""
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	read = fmt.Sprintf("%d bytes", len(got))
	if i < len(got) {
		read += fmt.Sprintf(", byte %d %#x", i, got[i])
	}
	return read, fmt.Sprintf("%d bytes of %#x", len(want), want[0])
}

// RunAllBytes runs the bytes conformance phases for every scheme.
func RunAllBytes(t *testing.T, f BytesFactory, opts Options) {
	opts.fill()
	for _, scheme := range opts.Schemes {
		t.Run(scheme, func(t *testing.T) {
			t.Run("Sequential", func(t *testing.T) { SequentialBytes(t, f, scheme) })
			t.Run("ConcurrentChurn", func(t *testing.T) { ConcurrentChurnBytes(t, f, scheme, opts) })
		})
	}
}

func newBytesArena(capacity int) *arena.Arena {
	a := arena.New(capacity)
	a.EnableBlobs(bytesBlobBudget)
	return a
}

// SequentialBytes checks single-threaded semantics and exact blob
// accounting through insert/duplicate/delete/reinsert cycles.
func SequentialBytes(t *testing.T, f BytesFactory, scheme string) {
	a := newBytesArena(1 << 16)
	tr := newTracker(t, scheme, a, 2)
	m := f(a, tr)

	op := func(fn func() bool) bool {
		enter(tr, 0)
		defer leave(tr, 0)
		return fn()
	}

	k10, v10 := bytesKey(10), bytesVal(10)
	if op(func() bool { _, ok := m.Get(0, k10, nil); return ok }) {
		t.Fatal("Get on empty structure succeeded")
	}
	if !op(func() bool { return m.Insert(0, k10, v10) }) {
		t.Fatal("first Insert failed")
	}
	if op(func() bool { return m.Insert(0, k10, []byte("other")) }) {
		t.Fatal("duplicate Insert succeeded")
	}
	if !op(func() bool {
		got, ok := m.Get(0, k10, nil)
		read, _ := checkBytesVal(10, got)
		return ok && read == ""
	}) {
		t.Fatal("Get after Insert failed or returned wrong value")
	}
	// Get must append to dst, leaving the prefix intact.
	prefix := []byte("prefix:")
	var appended []byte
	op(func() bool {
		appended, _ = m.Get(0, k10, append([]byte(nil), prefix...))
		return true
	})
	if !bytes.HasPrefix(appended, prefix) || !bytes.Equal(appended[len(prefix):], v10) {
		t.Fatalf("Get did not append: %q", appended)
	}
	if op(func() bool { return m.Delete(0, bytesKey(11)) }) {
		t.Fatal("Delete of absent key succeeded")
	}
	if !op(func() bool { return m.Delete(0, k10) }) {
		t.Fatal("Delete of present key failed")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after emptying", m.Len())
	}

	// Reinsertion churn across size classes (recycling path for both
	// nodes and blobs).
	for i := 0; i < 200; i++ {
		k := uint64(i % 10)
		op(func() bool { return m.Insert(0, bytesKey(k), bytesVal(k)) })
		op(func() bool { return m.Delete(0, bytesKey(k)) })
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after churn", m.Len())
	}
	// Exact blob accounting: every blob belongs to a live node.
	if fl, ok := tr.(smr.Flusher); ok {
		for pass := 0; pass < 3; pass++ {
			fl.Flush(0)
			fl.Flush(1)
		}
	}
	if blobLive, nodeLive := a.BlobStats().Live(), a.Live(); blobLive != 2*nodeLive {
		t.Fatalf("blob ledger drifted: %d live blobs for %d live nodes (want exactly 2 per node)", blobLive, nodeLive)
	}
}
