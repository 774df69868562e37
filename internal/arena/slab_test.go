package arena

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

func TestBlobClassOf(t *testing.T) {
	cases := []struct{ n, class int }{
		{0, 0}, {1, 0}, {16, 0}, {17, 1}, {32, 1}, {33, 2},
		{64, 2}, {1024, 6}, {1025, 7}, {65535, 12}, {65536, 12},
	}
	for _, c := range cases {
		if got := blobClassOf(c.n); got != c.class {
			t.Errorf("blobClassOf(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestBlobRefPacking(t *testing.T) {
	ref := packBlob(7, 12345, 300)
	if ref.IsNil() {
		t.Fatal("packed ref is nil")
	}
	if ref.class() != 7 || ref.idx() != 12345 || ref.Len() != 300 {
		t.Fatalf("roundtrip mismatch: class=%d idx=%d len=%d", ref.class(), ref.idx(), ref.Len())
	}
	if !NilBlob.IsNil() {
		t.Fatal("NilBlob not nil")
	}
}

// TestOneSlabBlobHeap: EnableBlobs makes one slab whatever the class
// count, mapped or on the Go heap (race builds). Each class's blocks
// and link words are the sizes the budget buys, lie inside that slab
// without overlapping and tile it exactly, and every link word is
// 8-byte aligned. (TestSlabsOffHeap checks that the slab is mapped.)
func TestOneSlabBlobHeap(t *testing.T) {
	type span struct {
		lo, hi uintptr
		what   string
	}
	for _, budget := range []int{1, 1000, 1 << 14, 3<<15 + 8} {
		a := New(64)
		made := slabsMade.Load()
		a.EnableBlobs(budget)
		if n := slabsMade.Load() - made; n != 1 {
			t.Fatalf("budget %d: EnableBlobs made %d slabs, want 1", budget, n)
		}
		var spans []span
		for c := range a.blobs.classes {
			cl := &a.blobs.classes[c]
			if n := blobBlocks(budget, c); len(cl.link) != n || len(cl.data) != n*cl.size {
				t.Fatalf("budget %d, class %d: %d links and %d data bytes, want %d blocks of %d bytes",
					budget, c, len(cl.link), len(cl.data), n, cl.size)
			}
			d := uintptr(unsafe.Pointer(unsafe.SliceData(cl.data)))
			l := uintptr(unsafe.Pointer(unsafe.SliceData(cl.link)))
			if l%8 != 0 {
				t.Errorf("budget %d, class %d: link words at %#x, not 8-byte aligned", budget, c, l)
			}
			spans = append(spans,
				span{d, d + uintptr(len(cl.data)), fmt.Sprintf("class %d blocks", c)},
				span{l, l + uintptr(len(cl.link))*8, fmt.Sprintf("class %d links", c)})
		}
		slices.SortFunc(spans, func(x, y span) int { return cmp.Compare(x.lo, y.lo) })
		for i := 1; i < len(spans); i++ {
			if p, s := spans[i-1], spans[i]; s.lo != p.hi {
				t.Fatalf("budget %d: %s ends at %#x but %s starts at %#x: not one tiled slab",
					budget, p.what, p.hi, s.what, s.lo)
			}
		}
		runtime.KeepAlive(a)
	}
}

func TestBlobAllocFreeRoundTrip(t *testing.T) {
	a := New(64)
	a.EnableBlobs(1 << 16)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		n := rng.Intn(2000)
		payload := make([]byte, n)
		rng.Read(payload)
		ref := a.AllocBlob(payload)
		if ref.Len() != n {
			t.Fatalf("Len = %d, want %d", ref.Len(), n)
		}
		if !bytes.Equal(a.Blob(ref), payload) {
			t.Fatalf("payload mismatch at %d bytes", n)
		}
		a.freeBlob(ref)
	}
	if live := a.BlobStats().Live(); live != 0 {
		t.Fatalf("Live = %d after balanced alloc/free", live)
	}
}

func TestBlobRecycleAndPoison(t *testing.T) {
	a := New(64)
	a.EnableBlobs(256) // tiny: forces recycling within a class
	// Every class, and the whole block: the fill doubles through each size.
	for size := blobMinClass; size <= 2*MaxBlob; size *= 2 {
		ref := a.AllocBlob(bytes.Repeat([]byte{0xAA}, min(size, MaxBlob)))
		block := a.Blob(ref)
		a.freeBlob(ref)
		for i, b := range block[:cap(block)] {
			if b != blobPoison {
				t.Fatalf("freed %d-byte block: byte %d = %#x, want poison %#x", size, i, b, blobPoison)
			}
		}
	}
	ref := a.AllocBlob(bytes.Repeat([]byte{0xAA}, 16))
	a.freeBlob(ref)
	ref2 := a.AllocBlob(bytes.Repeat([]byte{0xBB}, 10))
	if ref2.idx() != ref.idx() || ref2.class() != ref.class() {
		t.Fatalf("expected block recycle, got idx %d class %d", ref2.idx(), ref2.class())
	}
	if !bytes.Equal(a.Blob(ref2), bytes.Repeat([]byte{0xBB}, 10)) {
		t.Fatal("recycled block content wrong")
	}
}

func TestBlobDoubleFreePanics(t *testing.T) {
	a := New(64)
	a.EnableBlobs(1 << 12)
	ref := a.AllocBlob([]byte("hello"))
	a.freeBlob(ref)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.freeBlob(ref)
}

func TestBlobExhaustion(t *testing.T) {
	a := New(64)
	a.EnableBlobs(64) // 4 blocks in the 16 B class
	var refs []BlobRef
	for {
		ref, ok := a.TryAllocBlob(make([]byte, 16))
		if !ok {
			break
		}
		refs = append(refs, ref)
	}
	if len(refs) != 4 {
		t.Fatalf("got %d blocks from a 64-byte class budget, want 4", len(refs))
	}
	a.freeBlob(refs[2])
	if _, ok := a.TryAllocBlob(make([]byte, 3)); !ok {
		t.Fatal("alloc failed after a free")
	}
}

// TestNodeFreeReleasesBlobs is the core lifecycle invariant: freeing a
// node through the arena releases the blobs its Key/Val reference.
func TestNodeFreeReleasesBlobs(t *testing.T) {
	a := New(64)
	a.EnableBlobs(1 << 12)
	idx := a.Alloc(0)
	n := a.Node(idx)
	k := a.AllocBlob([]byte("key-bytes"))
	v := a.AllocBlob(bytes.Repeat([]byte{7}, 100))
	n.Key.Store(uint64(k))
	n.Val.Store(uint64(v))
	if live := a.BlobStats().Live(); live != 2 {
		t.Fatalf("Live = %d before node free, want 2", live)
	}
	a.Free(0, idx)
	if live := a.BlobStats().Live(); live != 0 {
		t.Fatalf("Live = %d after node free, want 0", live)
	}
	// Freeing a node with nil refs releases nothing and does not panic.
	idx2 := a.Alloc(0)
	a.Node(idx2).Key.Store(uint64(NilBlob))
	a.Node(idx2).Val.Store(uint64(NilBlob))
	a.Free(0, idx2)
}

func TestBlobReset(t *testing.T) {
	a := New(64)
	a.EnableBlobs(1 << 12)
	for i := 0; i < 10; i++ {
		a.AllocBlob(make([]byte, 40))
	}
	a.Reset()
	s := a.BlobStats()
	if s.Allocated != 0 || s.Freed != 0 {
		t.Fatalf("stats after Reset: %+v", s)
	}
	ref := a.AllocBlob([]byte{1, 2, 3})
	if got := a.Blob(ref); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("post-Reset blob = %v", got)
	}
}

// TestBlobConcurrentChurn hammers one size class from many goroutines;
// the live-mark CAS and the tagged free list must keep every block
// uniquely owned (content checks catch cross-thread block sharing).
func TestBlobConcurrentChurn(t *testing.T) {
	a := New(64)
	a.EnableBlobs(1 << 14)
	const workers = 8
	iters := 5000
	if testing.Short() {
		iters = 500
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pattern := byte(w + 1)
			for i := 0; i < iters; i++ {
				n := 1 + (i*7+w)%64
				ref := a.AllocBlob(bytes.Repeat([]byte{pattern}, n))
				got := a.Blob(ref)
				for j, b := range got {
					if b != pattern {
						panic(fmt.Sprintf("worker %d: byte %d = %#x, want %#x (block shared?)", w, j, b, pattern))
					}
				}
				a.freeBlob(ref)
			}
		}(w)
	}
	wg.Wait()
	if live := a.BlobStats().Live(); live != 0 {
		t.Fatalf("Live = %d after churn", live)
	}
}
