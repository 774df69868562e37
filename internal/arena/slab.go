// Blob slabs: variable-size byte payloads with the node lifecycle.
//
// The fixed-size Node covers the paper's uint64 workloads, but a real
// service stores []byte keys and values. Blobs extend the simulated
// unmanaged heap with size-class slab allocation — the shape of a
// jemalloc small/large split — while keeping the reclamation story
// untouched: a blob is only ever referenced from the Key/Val words of
// exactly one node, so protecting the node protects its blobs, and the
// blob is returned to its slab at the moment the node itself is freed.
// The schemes never see blobs at all; Retire/Dealloc/Free of the owning
// node is the whole lifecycle.
//
// Like freed nodes, freed blobs are poisoned and recycled for unrelated
// allocations, so a scheme that frees a node while a reader still
// traverses it produces real use-after-free effects in the byte payload
// too — the bytes conformance suite checks value content against a
// per-key pattern to catch exactly that.
package arena

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"unsafe"
)

// BlobRef is a packed reference to one slab block:
//
//	bits  0..31  block index+1 within its class (0 ⇒ nil ref)
//	bits 32..47  payload length in bytes
//	bits 48..53  size class
//
// The length rides in the reference so readers slice the block without
// a header word, and the class makes free O(1). A BlobRef lives in a
// node's Key or Val word; NilBlob (zero) means "no blob", which is also
// what a fresh node's zeroed words decode to.
type BlobRef uint64

// NilBlob is the zero BlobRef: no blob attached.
const NilBlob BlobRef = 0

const (
	blobIdxMask  = 1<<32 - 1
	blobLenShift = 32
	blobLenMask  = 1<<16 - 1
	blobClsShift = 48
	blobClsMask  = 1<<6 - 1

	// blobMinClass is the smallest block size; blobClasses doubles up
	// from it to 64 KiB, one class per power of two.
	blobMinClass = 16
	blobClasses  = 13 // 16 B .. 64 KiB

	// MaxBlob is the largest payload one blob can carry — sized to the
	// wire protocol's uint16 frame length, so any key or value that fits
	// a frame fits a blob.
	MaxBlob = 1<<16 - 1

	// blobLiveMark is stored in a block's link word while allocated, so
	// freeBlob catches double frees and corrupted references the same
	// way Seq catches them for nodes.
	blobLiveMark = ^uint64(0)

	// blobPoison is the fill pattern of freed blocks.
	blobPoison = 0xDB
)

// IsNil reports whether r references no blob.
func (r BlobRef) IsNil() bool { return r&blobIdxMask == 0 }

// Len returns the payload length in bytes.
func (r BlobRef) Len() int { return int(r >> blobLenShift & blobLenMask) }

func (r BlobRef) class() int  { return int(r >> blobClsShift & blobClsMask) }
func (r BlobRef) idx() uint32 { return uint32(r&blobIdxMask) - 1 }
func packBlob(class int, idx uint32, n int) BlobRef {
	return BlobRef(uint64(idx) + 1 | uint64(n)<<blobLenShift | uint64(class)<<blobClsShift)
}

// blobClass is one size class: fixed-size blocks carved from the heap's
// one slab, with a tagged Treiber free list and a bump frontier,
// mirroring the node pool. The head is one word per class rather than
// sharded: blob allocation happens once per insert (not per traversal
// step), so the class CAS is not the hot line the node free list would
// be.
type blobClass struct {
	size     int
	data     []byte
	link     []atomic.Uint64 // free-list next (idx+1), or blobLiveMark while allocated
	frontier atomic.Int64
	head     atomic.Uint64 // 32-bit ABA tag | 32-bit idx+1
	alloc    atomic.Int64
	freed    atomic.Int64
	_        [4]uint64 // keep neighbouring class heads off one line
}

// blobHeap is the whole slab heap, attached to an Arena by EnableBlobs.
type blobHeap struct {
	classes [blobClasses]blobClass
}

// EnableBlobs attaches a slab heap to the arena: classBudget bytes of
// backing per size class (rounded down to whole blocks, minimum one).
// The whole heap is one slab, mapped outside the Go heap and unmapped
// with the arena like the node pool (see the package doc), so the cost
// grows with neither classBudget nor the class count, and the backing
// is virtual until touched. Each class takes its blocks and then its
// link words from it in turn; a class's blocks span a multiple of 16
// bytes, so every link word stays 8-byte aligned. It must be called
// once, before any concurrent use; KV front-ends that carry bytes
// payloads call it during construction.
func (a *Arena) EnableBlobs(classBudget int) {
	if a.blobs != nil {
		panic("arena: EnableBlobs called twice")
	}
	if classBudget <= 0 {
		panic(fmt.Sprintf("arena: non-positive blob class budget %d", classBudget))
	}
	h := &blobHeap{}
	words := 0
	for c := range h.classes {
		words += blobBlocks(classBudget, c) * (blobMinClass<<c/8 + 1)
	}
	slab := newSlab[atomic.Uint64](a, words)
	for c := range h.classes {
		size, n := blobMinClass<<c, blobBlocks(classBudget, c)
		data := unsafe.SliceData(slab[:n*size/8])
		h.classes[c] = blobClass{
			size: size,
			data: unsafe.Slice((*byte)(unsafe.Pointer(data)), n*size),
			link: slab[n*size/8 : n*(size/8+1)],
		}
		slab = slab[n*(size/8+1):]
	}
	a.blobs = h
}

// blobBlocks is how many blocks of class c a classBudget buys.
func blobBlocks(classBudget, c int) int {
	return min(max(classBudget/(blobMinClass<<c), 1), blobIdxMask)
}

// BlobsEnabled reports whether EnableBlobs has been called.
func (a *Arena) BlobsEnabled() bool { return a.blobs != nil }

// blobClassOf returns the smallest class whose block holds n bytes.
func blobClassOf(n int) int {
	c, size := 0, blobMinClass
	for size < n {
		c++
		size <<= 1
	}
	return c
}

// TryAllocBlob copies b into a fresh slab block and returns its
// reference. It fails only when b's size class is exhausted. An empty b
// still claims a minimum-class block, so the returned ref is never
// NilBlob and the blob invariants (one ref per live word, exact free
// accounting) hold uniformly.
func (a *Arena) TryAllocBlob(b []byte) (BlobRef, bool) {
	if a.blobs == nil {
		panic("arena: blob allocation without EnableBlobs")
	}
	if len(b) > MaxBlob {
		panic(fmt.Sprintf("arena: %d-byte blob exceeds MaxBlob (%d)", len(b), MaxBlob))
	}
	c := blobClassOf(len(b))
	cl := &a.blobs.classes[c]
	idx, ok := cl.pop()
	if !ok {
		if f := cl.frontier.Add(1) - 1; f < int64(len(cl.link)) {
			idx = uint32(f)
		} else {
			return NilBlob, false
		}
	}
	cl.link[idx].Store(blobLiveMark)
	copy(cl.data[int(idx)*cl.size:], b)
	cl.alloc.Add(1)
	return packBlob(c, idx, len(b)), true
}

// AllocBlob is TryAllocBlob, panicking on exhaustion (like Alloc, pool
// exhaustion means reclamation is leaking or the budget is undersized).
func (a *Arena) AllocBlob(b []byte) BlobRef {
	ref, ok := a.TryAllocBlob(b)
	if !ok {
		panic(fmt.Sprintf("arena: out of %d-byte blob blocks (reclamation too slow or budget too small)", a.blobs.classes[blobClassOf(len(b))].size))
	}
	return ref
}

// Blob returns the payload referenced by ref, aliasing the slab: valid
// only while the owning node is protected (the same contract as reading
// any other field of a protected node). ref must not be nil.
func (a *Arena) Blob(ref BlobRef) []byte {
	cl := &a.blobs.classes[ref.class()]
	off := int(ref.idx()) * cl.size
	return cl.data[off : off+ref.Len() : off+cl.size]
}

// freeBlob returns ref's block to its class. Called by Release for the
// refs the dying node holds; double frees and refs that never came from
// AllocBlob panic via the live-mark check.
func (a *Arena) freeBlob(ref BlobRef) {
	c := ref.class()
	if c >= blobClasses {
		panic(fmt.Sprintf("arena: blob free of corrupt ref %#x", uint64(ref)))
	}
	cl := &a.blobs.classes[c]
	idx := ref.idx()
	if int64(idx) >= cl.frontier.Load() {
		panic(fmt.Sprintf("arena: blob free of never-allocated ref %#x", uint64(ref)))
	}
	if !cl.link[idx].CompareAndSwap(blobLiveMark, 0) {
		panic(fmt.Sprintf("arena: blob double free (ref %#x)", uint64(ref)))
	}
	// Go does not vectorise a loop storing a non-zero byte, and a copy per
	// doubling from one byte costs more than that loop on the small
	// classes. So two word stores poison the first 16 bytes, which every
	// class holds, and copy doubles that prefix: log2(size/16) memmoves.
	const word = blobPoison * 0x0101_0101_0101_0101
	block := cl.data[int(idx)*cl.size : (int(idx)+1)*cl.size]
	binary.LittleEndian.PutUint64(block, word)
	binary.LittleEndian.PutUint64(block[8:], word)
	for i := 16; i < len(block); i *= 2 {
		copy(block[i:], block[:i])
	}
	cl.push(idx)
	cl.freed.Add(1)
}

// pop takes one free block off the class free list.
func (cl *blobClass) pop() (uint32, bool) {
	for {
		head := cl.head.Load()
		hi := head & headIdxMask
		if hi == 0 {
			return 0, false
		}
		idx := uint32(hi - 1)
		next := cl.link[idx].Load() & headIdxMask
		if cl.head.CompareAndSwap(head, ((head&^headIdxMask)+headTagIncr)|next) {
			return idx, true
		}
	}
}

// push returns a block to the class free list.
func (cl *blobClass) push(idx uint32) {
	for {
		head := cl.head.Load()
		cl.link[idx].Store(head & headIdxMask)
		if cl.head.CompareAndSwap(head, ((head&^headIdxMask)+headTagIncr)|(uint64(idx)+1)) {
			return
		}
	}
}

// resetBlobs returns the slab heap to its freshly enabled state (Reset
// calls it; same no-concurrent-use contract).
func (h *blobHeap) reset() {
	for c := range h.classes {
		cl := &h.classes[c]
		f := cl.frontier.Load()
		if f > int64(len(cl.link)) {
			f = int64(len(cl.link))
		}
		clear(cl.link[:f])
		clear(cl.data[:int(f)*cl.size])
		cl.frontier.Store(0)
		cl.head.Store(0)
		cl.alloc.Store(0)
		cl.freed.Store(0)
	}
}

// BlobStats are cumulative slab counters. Live blobs = Allocated-Freed;
// for the bytes structures every live node owns exactly two blobs (key
// and value), which the conformance suite asserts.
type BlobStats struct {
	Allocated int64 // blocks handed out
	Freed     int64 // blocks returned
}

// Live returns the number of blob blocks currently allocated.
func (s BlobStats) Live() int64 { return s.Allocated - s.Freed }

// BlobStats sums the slab counters; zero when blobs are not enabled.
func (a *Arena) BlobStats() BlobStats {
	var s BlobStats
	if a.blobs == nil {
		return s
	}
	for c := range a.blobs.classes {
		s.Allocated += a.blobs.classes[c].alloc.Load()
		s.Freed += a.blobs.classes[c].freed.Load()
	}
	return s
}
