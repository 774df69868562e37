// Bytes-structure conformance: the []byte-payload twin of the uint64
// suite. Values live in variable-size blob slabs owned by their node,
// so beyond the usual linearizability and use-after-free checks the
// phases pin the blob ledger to the node ledger: a blist node owns
// exactly two blobs (key and value) from Alloc to Free, so the live
// blob count must equal exactly twice the live node count — any drift
// is a leaked or double-freed blob.
package dstest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
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

func checkBytesVal(k uint64, got []byte) string {
	want := bytesVal(k)
	if !bytes.Equal(got, want) {
		return fmt.Sprintf("key %d: value is %d bytes (fill %#x...), want %d bytes of %#x (use-after-free?)",
			k, len(got), first(got), len(want), want[0])
	}
	return ""
}

func first(b []byte) byte {
	if len(b) == 0 {
		return 0
	}
	return b[0]
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
		return ok && checkBytesVal(10, got) == ""
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

// ConcurrentChurnBytes hammers the bytes structure from many
// goroutines: striped exact models, foreign reads checking the value
// invariant (any recycled or poisoned blob shows up as corrupt content)
// and, at quiescence, model agreement plus the exact two-blobs-per-node
// ledger identity.
func ConcurrentChurnBytes(t *testing.T, f BytesFactory, scheme string, opts Options) {
	threads := runtime.GOMAXPROCS(0)
	if threads < 4 {
		threads = 4
	}
	if threads > 8 {
		threads = 8
	}
	a := newBytesArena(opts.ArenaCap)
	tr := newTracker(t, scheme, a, threads)
	m := f(a, tr)

	// Bytes structures are ordered lists: keep the key space small
	// enough that O(n) traversals stay fast under -race.
	keySpace := int(opts.KeySpace) / 4
	if keySpace < 64 {
		keySpace = 64
	}
	ops := opts.OpsPerThread / 4

	seed := phaseSeed(t)
	errc := make(chan string, threads)
	models := make([]map[uint64]bool, threads)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := laneRNG(seed, tid)
			model := map[uint64]bool{}
			models[tid] = model
			var dst []byte
			for i := 0; i < ops; i++ {
				// Own-stripe keys: key % threads == tid.
				key := uint64(rng.Intn(keySpace))*uint64(threads) + uint64(tid)
				enter(tr, tid)
				switch rng.Intn(4) {
				case 0:
					got := m.Insert(tid, bytesKey(key), bytesVal(key))
					if got == model[key] {
						errc <- fmt.Sprintf("tid %d: Insert(%d)=%v but model says %v", tid, key, got, model[key])
						leave(tr, tid)
						return
					}
					model[key] = true
				case 1:
					got := m.Delete(tid, bytesKey(key))
					if got != model[key] {
						errc <- fmt.Sprintf("tid %d: Delete(%d)=%v but model says %v", tid, key, got, model[key])
						leave(tr, tid)
						return
					}
					model[key] = false
				case 2:
					var ok bool
					dst, ok = m.Get(tid, bytesKey(key), dst[:0])
					if ok != model[key] {
						errc <- fmt.Sprintf("tid %d: Get(%d) ok=%v but model says %v", tid, key, ok, model[key])
						leave(tr, tid)
						return
					}
					if ok {
						if msg := checkBytesVal(key, dst); msg != "" {
							errc <- fmt.Sprintf("tid %d: %s", tid, msg)
							leave(tr, tid)
							return
						}
					}
				default:
					// Foreign read: only the value invariant applies.
					fk := uint64(rng.Intn(keySpace * threads))
					var ok bool
					dst, ok = m.Get(tid, bytesKey(fk), dst[:0])
					if ok {
						if msg := checkBytesVal(fk, dst); msg != "" {
							errc <- fmt.Sprintf("tid %d: foreign %s", tid, msg)
							leave(tr, tid)
							return
						}
					}
				}
				leave(tr, tid)
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for e := range errc {
		t.Fatal(e)
	}

	// The final structure must match the union of per-thread models.
	want := 0
	var dst []byte
	for tid, model := range models {
		for key, present := range model {
			enter(tr, tid)
			var ok bool
			dst, ok = m.Get(tid, bytesKey(key), dst[:0])
			leave(tr, tid)
			if ok != present {
				t.Fatalf("post-churn: key %d present=%v want %v", key, ok, present)
			}
			if ok {
				if msg := checkBytesVal(key, dst); msg != "" {
					t.Fatalf("post-churn: %s", msg)
				}
				want++
			}
		}
	}
	if got := m.Len(); got != want {
		t.Fatalf("Len = %d, models say %d", got, want)
	}

	// Reclamation accounting at quiescence.
	if fl, ok := tr.(smr.Flusher); ok {
		for pass := 0; pass < 3; pass++ {
			for tid := 0; tid < threads; tid++ {
				fl.Flush(tid)
			}
		}
	}
	st := tr.Stats()
	if scheme != "leaky" {
		slack := int64(4096) + opts.LeakSlack
		if un := st.Unreclaimed(); un > slack {
			t.Fatalf("%d nodes unreclaimed at quiescence (slack %d)", un, slack)
		}
	}
	// The blob ledger tracks the node ledger exactly: two blobs per live
	// node, whether that node is in the structure or retired-but-pinned.
	if blobLive, nodeLive := a.BlobStats().Live(), a.Live(); blobLive != 2*nodeLive {
		t.Fatalf("blob ledger drifted: %d live blobs for %d live nodes (want exactly 2 per node)", blobLive, nodeLive)
	}
}
