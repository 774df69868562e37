// Package arena implements the simulated unmanaged heap that every
// reclamation scheme in this repository manages.
//
// The Hyaline paper targets C/C++, where retired nodes must eventually be
// handed back to malloc and a premature free lets another thread recycle
// the memory while stale pointers still exist. Go's garbage collector
// would silently paper over all of those bugs, so this package brings the
// danger back: nodes live in a fixed pool, Free pushes them onto a shared
// free list, and Alloc recycles them for unrelated operations. A scheme
// that frees too early produces real use-after-free effects (poisoned
// reads, sequence-stamp mismatches) that the test suite detects.
//
// Nodes are addressed by ptr.Index and referenced through packed ptr.Word
// values, preserving the ABA behaviour of raw pointers. The free list is
// sharded by thread ID so that allocator contention does not drown out
// the reclamation costs the benchmarks measure — the role jemalloc plays
// in the paper's testbed.
//
// A node is one cache line unless it needs a tower. Node is eight words:
// the paper's three header words (§2.4), the four payload words Key, Val,
// Left and Right, and the Seq stamp. Those are all the words the schemes,
// the list, the hash map, the bytes list and the Natarajan tree touch, so
// they allocate only nodes, 64 bytes each. The arena has a second size
// class, the pair: a Node and its Tail on the next line, 128 bytes, for
// the words only a skiplist tower of height 2 or more and a Bonsai node
// use (AllocWide). The slab is mapped at two lines per index of the
// power-of-two backing whatever the mix: nodes are carved upward from
// line 0 and pairs downward from the top, so every pair starts on an
// even line and the two ends never meet, and Mapped depends only on the
// capacity. The lines nothing has carved are never touched and cost no
// resident memory. A pair counts as one node in the capacity, Stats and
// Live, and the capacity is capped at 2^30 so that a line index plus one
// fits a free-list head's 32 bits.
//
// That role includes remote frees. Under Hyaline a batch is freed by
// whichever thread drops its last reference, not by the thread that
// allocated or retired its nodes, so a node routinely comes back on
// another tid's shard than the one it left — for an allocating thread
// paired with a freeing one it is the only case there is. Allocation
// therefore recycles before it grows: the home shard first, then any
// shard a one-word hint says holds free nodes, and only then a fresh
// node from the bump frontier (see tryAlloc). Without the second step
// the frontier, and with it resident memory, climbs with throughput
// while freed nodes sit idle one shard over.
//
// A reclamation pass frees with one push. Hyaline frees a whole batch at
// once, and the limbo scans of the other schemes free whatever their
// pass finds unreachable, so each scheme Releases the pass's nodes into a
// Chain and hands it over with one FreeChain: one CAS on the shard head
// and one counter update for the whole pass rather than per node. Free
// is Release and FreeChain of a chain of one.
//
// A word that no other goroutine can yet read takes a plain store
// (ptr.StoreOwned). One argument covers both cases there are: a node
// being freed and a node not yet published each have one owner, and the
// CAS that hands the node on — FreeChain's push for a freed node, the
// structure's or the tracker's publishing CAS for a new or retired one —
// orders every store before it for whoever that CAS hands the node to.
// A stale reader racing the stores unordered sees the old word or the
// new one, as it would with an atomic store. So Release writes the
// poison and the chain link plainly, and so do a tracker's birth-era and
// batch-header stores and a structure's stores into a node it has
// allocated but not linked yet. Race builds keep atomic stores, so the
// detector sees a stale reader racing a free as it always has: atomic on
// both sides, not a report.
//
// Like jemalloc's heap, the slabs are not Go objects. The node pool is
// one private anonymous mapping (offheap.go), and the blob heap, when
// enabled, is one more whatever its class count, so building an arena
// is O(1) in its capacity: the runtime does not re-zero a reused span
// for it, the garbage collector neither scans it nor counts it towards
// the GC goal, and on Linux MAP_NORESERVE keeps every page virtual
// until a node or blob first touches it. Mapped
// reports the bytes mapped. A race build keeps the slabs on the Go heap,
// as do platforms other than Linux, Darwin and FreeBSD and a failed map:
// the race detector ignores atomics on memory outside the Go heap.
//
// The mappings are unmapped by a cleanup once the *Arena is unreachable,
// and a *Node or a Blob slice pointing into one does not keep the arena
// reachable, nor does a Slab view. Hence the lifetime rule: a *Node, a
// Slab or a Blob slice is used only while its user also holds a
// reference that reaches the arena.
// Every structure and tracker holds its *Arena; the store's leave after
// the structure call keeps the shard, and with it the arena, reachable
// for the whole operation; and under the explicit-tid API the Leave that
// closes a bracket keeps the tracker reachable. Code that keeps only a
// *Node, such as a test that drops its arena variable early, must
// runtime.KeepAlive the arena past its last use of the node.
package arena

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"unsafe"

	"hyaline/internal/ptr"
)

// Poison is written over the payload of freed nodes so that readers of
// prematurely reclaimed memory observe an obviously invalid value.
const Poison = 0xDEAD_BEEF_DEAD_BEEF

// Node is one block of the simulated heap: one 64-byte cache line, the
// paper's three header words, four payload words and Seq. The first
// three fields are the reclamation header; the paper (§2.4) budgets
// exactly three CPU words for Hyaline's header, and this layout mirrors
// it:
//
//	Next      — per-slot retirement-list link (shared: free-list link,
//	            EBR/HP/HE/IBR limbo-list link)
//	BatchLink — for ordinary batch nodes, reference to the REFS node;
//	            for the REFS node, reference to the first node of the
//	            batch (used by free_batch)
//	Refs      — REFS node: the batch reference counter NRef;
//	            other nodes: the birth era (Hyaline-S/HE/IBR), which the
//	            paper notes need not survive retirement
//
// Key, Val, Left and Right are the data-structure payload, enough for
// the list, the hash map, the bytes list and the Natarajan tree, whose
// nodes are this one line and nothing more. A skiplist tower above
// height 1 and a Bonsai node also need the words of a Tail, the line
// after the node, and are allocated as pairs (see Tail).
//
// Nodes live in the arena's mapped slab, outside the Go heap (see the
// package doc), so Node must never gain a Go pointer: the garbage
// collector does not scan the slab, and a pointer stored there would not
// keep its referent alive. A *Node obeys the package's lifetime rule.
type Node struct {
	Next      atomic.Uint64 // ptr.Word or scheme-specific link
	BatchLink atomic.Uint64 // ptr.Word
	Refs      atomic.Uint64 // NRef / birth era

	// Key is atomic not for ordering but for definedness: lock-free
	// traversals may validly race a concurrent Free's poisoning (e.g.
	// the Natarajan & Mittal seek under hazard pointers, a protocol
	// looseness shared with the paper's evaluation framework), and such
	// reads must return garbage, not undefined behaviour. Writes that
	// need no ordering of their own — Release's poison, a payload stored
	// before the node is published — are plain stores through
	// ptr.StoreOwned, under the package doc's one argument.
	Key  atomic.Uint64
	Val  atomic.Uint64
	Left atomic.Uint64 // ptr.Word: list next, tree left child

	// Right is payload no scheme has a claim on: the trees' right child,
	// the skiplist's level mask, and every list node's order word — the
	// key itself in a uint64 list or hash map bucket, and in the bytes
	// list the key's first 8 bytes, big-endian and zero-padded
	// (list.keyPrefix) — so that a traversal hop compares one word and
	// reads a bytes key's blob only on a tie. The list writes it with Key
	// and Val before the node is published and nothing writes it again
	// until Free's poison.
	Right atomic.Uint64

	// Seq is the node's incarnation stamp: even while allocated, odd
	// while free, bumped on every recycle and Free (never-allocated nodes
	// are live at Seq 0, so the bump-frontier allocation path stays
	// store-free). It gives tests recycle detection, and the arena panics
	// on double-free and on corruption of the live/free discipline. A
	// pair's Seq also carries pairSeq, set when the pair is carved and
	// kept through every bump, so a pair stays a pair (see Wide).
	Seq atomic.Uint64
}

// Tail is the second cache line of a pair (see AllocWide): the words
// that only the multi-word structures use. It sits directly after its
// Node, so a pair is 128 B, an adjacent-line prefetch pair. After a
// node that is not a pair those bytes belong to another node or to no
// one, and Tail and Link above level 0 must not be used.
type Tail struct {
	// Aux is the tree size (Bonsai) or the tower height (skiplist). It
	// is the one payload word promised to the era schemes, from Retire
	// on, as their retire stamp (HE/IBR in this tree stamp BatchLink
	// instead, but the skiplist reads its height defensively for that
	// reason), which is why the list's order word lives in Right: a word
	// a scheme may overwrite at Retire cannot hold what a reader still
	// standing on the retired node compares.
	Aux atomic.Uint64

	// Extra holds the skiplist's level-1..7 next pointers, addressed
	// through Link.
	Extra [MaxLinks - 1]atomic.Uint64
}

// MaxLinks is the number of per-level link words a pair can hold: Left
// (level 0) plus the Tail's Extra words. It caps the skiplist tower
// height.
const MaxLinks = 8

// nodeShift is log2 of a line's bytes: one Node, or one Tail.
const nodeShift = 6

// A Node is exactly one line (this line fails to compile if the node
// gains or loses a word), and so is the Tail that completes a pair.
var _ = [1]struct{}{}[unsafe.Sizeof(Node{})-1<<nodeShift]
var _ = [1]struct{}{}[unsafe.Sizeof(Tail{})-1<<nodeShift]

// Tail returns the node's second line. The node must be a pair.
func (n *Node) Tail() *Tail {
	return (*Tail)(unsafe.Add(unsafe.Pointer(n), unsafe.Sizeof(Node{})))
}

// Link returns the node's link word for the given level of a multi-link
// structure: level 0 aliases Left, levels 1..MaxLinks-1 live in the
// Tail's Extra words, so only level 0 is valid on a node that is not a
// pair. A level outside 0..MaxLinks-1 panics.
func (n *Node) Link(level int) *atomic.Uint64 {
	return n.LinkAt(LinkOffset(level))
}

// LinkOffset returns the byte offset of a level's link word from its
// node (see Link), and panics on a level outside 0..MaxLinks-1. A walk
// that stays on one level computes it once and hops with LinkAt.
func LinkOffset(level int) uintptr {
	if uint(level) >= MaxLinks {
		panic("arena: link level out of range")
	}
	if level == 0 {
		return unsafe.Offsetof(Node{}.Left)
	}
	return unsafe.Sizeof(Node{}) + unsafe.Offsetof(Tail{}.Extra) + uintptr(level-1)*8
}

// LinkAt returns the link word off bytes into n, an offset LinkOffset
// returned.
func (n *Node) LinkAt(off uintptr) *atomic.Uint64 {
	return (*atomic.Uint64)(unsafe.Add(unsafe.Pointer(n), off))
}

// class is a size class: a node, one line, or a pair, a Node and its
// Tail on the next line.
type class int

const (
	narrow class = iota
	wide
	classes
)

// pairSeq marks a pair in its Seq word. The stamp's bumps never reach
// it, so it survives every free and recycle.
const pairSeq = 1 << 63

// shards is the number of free-list shards per class. Power of two.
const shards = 64

type paddedHead struct {
	head atomic.Uint64
	_    [7]uint64
}

type paddedCounter struct {
	allocated atomic.Int64
	freed     atomic.Int64
	_         [6]uint64
}

// Arena is a fixed-capacity pool of nodes with sharded lock-free free
// lists, one set per size class. The zero value is not usable; call
// New.
//
// Fresh nodes come from a bump frontier, so New never touches the backing
// pages: a deliberately oversized arena (used for the Leaky baseline,
// which never frees) costs only virtual address space until nodes are
// actually allocated.
//
// Alloc hands out nodes, one line each, and AllocWide pairs, a Node and
// its Tail. The structures that need a Tail — a skiplist tower of height
// 2 or more, every Bonsai node — ask for a pair; nothing else does.
type Arena struct {
	// The read-mostly words lead, alone on the struct's first cache line.
	// nodes and mask are what every Deref and Node reads on every
	// traversal hop (or once per walk, through Slab), and nothing writes
	// this line after construction.
	// Every word an allocation or a free writes sits on a later line, so
	// a push or pop on one core does not invalidate the line a traversal
	// on another core reads (TestLayoutReadMostlyLine).
	//
	// The slab is two lines (128 B) per index of the backing, whatever
	// the mix of classes, so Mapped depends only on the capacity. Node
	// i starts i lines into it: nodes count up from line 0, pairs down
	// from the top (see carve).
	nodes    []Node
	capacity int
	mask     uint32 // slab lines - 1: Deref wraps wild words with it

	// blobs is the optional variable-size slab heap (see slab.go). When
	// enabled, every node freed through this arena must hold a valid
	// BlobRef (or NilBlob) in both Key and Val — Free releases them with
	// the node — so blob-enabled arenas are reserved for the bytes
	// structures; the uint64 structures keep arbitrary words in Key/Val
	// and must run on a plain arena.
	blobs *blobHeap
	_     [16]byte // to the end of the read-mostly line

	// frontier counts the never-used slots carved so far: nodes in its
	// low 32 bits, pairs in its high 32 (see carve).
	frontier atomic.Uint64

	// nonEmpty is each class's recycling hint: bit s is set while shard s
	// may hold free slots of that class. It is advisory — a stale set bit
	// costs one failed tryPop, a stale clear bit one fresh slot — and
	// written only when a shard changes between empty and non-empty (see
	// markNonEmpty, markEmpty), so while nothing is ever freed it stays
	// zero and costs an allocation one load.
	nonEmpty [classes]atomic.Uint64
	_        [40]byte // off shard 0's head, which its owner writes on every push and pop

	// Each shard head packs a 32-bit ABA tag with a 32-bit (index+1) so
	// that Treiber-stack pops cannot be fooled by recycling.
	free [classes][shards]paddedHead

	// counters are sharded by tid: a single global pair would be the
	// hottest cache line in every benchmark. A pair counts as one node.
	counters [shards]paddedCounter
}

// maxCapacity caps New: the slab's lines, twice the backing, must leave
// room for a line index plus one in a free-list head's low 32 bits.
const maxCapacity = 1 << 30

// New creates an arena with capacity nodes, all initially free. The
// backing slab is rounded up to a power of two so Deref can wrap wild
// words instead of crashing. It is mapped outside the Go heap (see the
// package doc), so New costs the same at any capacity and the slab stays
// virtual until nodes are allocated; it is unmapped once the arena is
// unreachable.
func New(capacity int) *Arena {
	if capacity <= 0 {
		panic(fmt.Sprintf("arena: non-positive capacity %d", capacity))
	}
	if capacity > maxCapacity {
		panic(fmt.Sprintf("arena: capacity %d exceeds index space", capacity))
	}
	backing := 1
	for backing < capacity {
		backing <<= 1
	}
	a := &Arena{capacity: capacity, mask: uint32(2*backing - 1)}
	a.nodes = newSlab[Node](a, 2*backing)
	return a
}

// Cap returns the arena capacity in nodes.
func (a *Arena) Cap() int { return a.capacity }

// Node returns the node with index i, which must be a valid allocation.
// The index is bounds-checked against the slab.
func (a *Arena) Node(i ptr.Index) *Node {
	return &a.nodes[i]
}

// node is Node without the bounds check, for indices the arena itself
// handed out or took back.
func (a *Arena) node(i ptr.Index) *Node {
	return (*Node)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(a.nodes)), uintptr(i)<<nodeShift))
}

// Deref returns the node referenced by w, which must not be nil.
//
// The index is wrapped into the pool rather than bounds-checked: a
// traversal that races a free (legal under the hazard-pointer usage of
// the Natarajan & Mittal seek, as in the paper's evaluation framework)
// may read a poisoned link and chase it. In C that is a garbage read
// that the algorithm's validation then rejects; wrapping reproduces
// that behaviour instead of crashing the simulation.
func (a *Arena) Deref(w ptr.Word) *Node {
	return a.Slab().Deref(w)
}

// Slab is a read-only view of an arena's node slab: its base and wrap
// mask, which never change after New. A traversal reads them once with
// (*Arena).Slab and then dereferences each hop with Slab.Deref, instead
// of loading both from the arena on every hop. It follows the package's
// lifetime rule, as a *Node does: it does not keep the arena reachable.
type Slab struct {
	base unsafe.Pointer
	mask uint32
}

// Slab returns the view of a's node slab.
func (a *Arena) Slab() Slab {
	return Slab{unsafe.Pointer(unsafe.SliceData(a.nodes)), a.mask}
}

// Deref is (*Arena).Deref through the view: the same node, the same wrap.
func (s Slab) Deref(w ptr.Word) *Node {
	return (*Node)(unsafe.Add(s.base, uintptr(ptr.Idx(w)&s.mask)<<nodeShift))
}

// Wide reports whether node i, a valid allocation, is a pair: whether
// its Tail is its own.
func (a *Arena) Wide(i ptr.Index) bool {
	return a.node(i).Seq.Load()&pairSeq != 0
}

// Owner returns the node whose words include the one at p, and the
// word's number within it: 0..7 on the Node's line, 8..15 on a pair's
// Tail. It reports false if p is not in the slab. A line nothing has
// carved belongs to the node of its own index. It is for checkers that
// map an address back to the node it lies in.
func (a *Arena) Owner(p unsafe.Pointer) (idx ptr.Index, word int, ok bool) {
	off := uintptr(p) - uintptr(unsafe.Pointer(unsafe.SliceData(a.nodes)))
	if off >= uintptr(len(a.nodes))<<nodeShift {
		return 0, 0, false
	}
	idx = ptr.Index(off >> nodeShift)
	if idx&1 != 0 && a.Wide(idx-1) { // pairs start on even lines
		idx--
	}
	return idx, int(off-uintptr(idx)<<nodeShift) / 8, true
}

const (
	headIdxMask = (1 << 32) - 1
	headTagIncr = 1 << 32
)

// tryPop pops one slot from shard s of class c.
func (a *Arena) tryPop(c class, s int) (ptr.Index, bool) {
	head := &a.free[c][s].head
	for {
		h := head.Load()
		hi := h & headIdxMask
		if hi == 0 {
			return 0, false
		}
		idx := ptr.Index(hi - 1)
		next := a.node(idx).Next.Load() & headIdxMask
		newHead := ((h &^ headIdxMask) + headTagIncr) | next
		if head.CompareAndSwap(h, newHead) {
			return idx, true
		}
	}
}

// TryAlloc returns a node, or false if the pool is exhausted; see
// tryAlloc.
func (a *Arena) TryAlloc(tid int) (ptr.Index, bool) { return a.tryAlloc(tid, narrow) }

// TryAllocWide returns a pair, or false if the pool is exhausted; see
// tryAlloc.
func (a *Arena) TryAllocWide(tid int) (ptr.Index, bool) { return a.tryAlloc(tid, wide) }

// tryAlloc recycles before it grows: it pops a slot of class c from the
// shard of tid, then from the shards the class's nonEmpty hint names —
// slots freed under another tid, the common case under Hyaline (see the
// package doc) — then carves a fresh one, and only when the pool is
// exhausted scans every shard head. It returns false only when the whole
// pool is exhausted.
//
// Like malloc, tryAlloc leaves the slot's contents unspecified (fresh
// nodes are zero, recycled ones carry stale or poisoned data): callers
// must initialize every field they later read before publishing the
// node. Zeroing here would cost eight sequentially-consistent stores on
// the hottest path of every benchmark.
func (a *Arena) tryAlloc(tid int, c class) (ptr.Index, bool) {
	home := tid & (shards - 1)
	if idx, ok := a.tryPop(c, home); ok {
		a.scrub(idx)
		a.counters[home].allocated.Add(1)
		return idx, true
	}
	// Home shard empty: recycle a remote free if the hint knows of one.
	// With nothing freed anywhere (prefill, Leaky) this is a single load
	// of zero and no shard head is touched.
	for w := a.nonEmpty[c].Load() &^ (1 << home); w != 0; w &= w - 1 {
		s := bits.TrailingZeros64(w)
		if idx, ok := a.tryPop(c, s); ok {
			a.scrub(idx)
			a.counters[home].allocated.Add(1)
			return idx, true
		}
		a.markEmpty(c, s)
	}
	// Nothing to recycle: carve a never-used slot.
	if idx, ok := a.carve(c); ok {
		a.counters[home].allocated.Add(1)
		return idx, true
	}
	// Frontier exhausted: scan every other shard, hinted or not (a stale
	// clear bit must not turn into a false out-of-nodes).
	for off := 1; off < shards; off++ {
		if idx, ok := a.tryPop(c, (home+off)&(shards-1)); ok {
			a.scrub(idx)
			a.counters[home].allocated.Add(1)
			return idx, true
		}
	}
	return 0, false
}

// carve claims a never-used slot of class c with a single fetch-add on
// the frontier (a CAS loop here melts under allocation-heavy schemes like
// Leaky), which also sees every earlier claim of either class. Nodes are
// carved upward from line 0 and pairs downward from the slab's top, so a
// pair starts on an even line. A claim is valid while nodes + pairs stay
// within the capacity, and since nodes + 2·pairs <= 2·capacity is at
// most the slab's lines, the two ends never meet.
//
// Fresh nodes are already zero — live at Seq 0 — so carving a node does
// not write it at all; a pair takes one plain store of pairSeq while it
// is still private. The frontier is loaded before the add and left alone
// once full: racing claims overshoot it by at most one each and never
// come back, but a full arena's failed allocations must not add up
// until the node count carries into the pair count.
func (a *Arena) carve(c class) (ptr.Index, bool) {
	one := uint64(1) << (32 * c)
	if claimed(a.frontier.Load()) >= uint64(a.capacity) {
		return 0, false
	}
	f := a.frontier.Add(one) - one
	if claimed(f) >= uint64(a.capacity) {
		return 0, false
	}
	if c == narrow {
		return ptr.Index(uint32(f)), true
	}
	idx := ptr.Index(a.mask - 1 - 2*uint32(f>>32))
	ptr.StoreOwned(&a.node(idx).Seq, pairSeq)
	return idx, true
}

// claimed is the number of slots a frontier word has handed out,
// counting a pair as one.
func claimed(f uint64) uint64 { return f&headIdxMask + f>>32 }

// markNonEmpty sets shard s's hint bit for class c; FreeChain calls it
// after the push that took the shard from empty to non-empty. Load/CAS
// rather than Or: go1.24.0 miscompiles the value-returning form (see
// CHANGES.md), and the load lets a shard whose bit is already set skip
// the write.
func (a *Arena) markNonEmpty(c class, s int) {
	hint, bit := &a.nonEmpty[c], uint64(1)<<s
	for {
		w := hint.Load()
		if w&bit != 0 || hint.CompareAndSwap(w, w|bit) {
			return
		}
	}
}

// markEmpty clears shard s's hint bit for class c after a hinted pop
// found the shard empty. The head is re-read after the clear: a FreeChain
// that filled the shard in between saw the bit still set and wrote
// nothing, so the bit is put back here — which is what keeps "non-empty
// implies hinted" exact once the arena is quiescent. The owner's own pops
// never clear the bit (a thread freeing and reallocating one node would
// write the shared word twice per pair); the next thief to come up empty
// does.
func (a *Arena) markEmpty(c class, s int) {
	hint, bit := &a.nonEmpty[c], uint64(1)<<s
	for {
		w := hint.Load()
		if w&bit == 0 || hint.CompareAndSwap(w, w&^bit) {
			break
		}
	}
	if a.free[c][s].head.Load()&headIdxMask != 0 {
		a.markNonEmpty(c, s)
	}
}

// scrub marks a recycled node live, enforcing the free/live discipline.
func (a *Arena) scrub(idx ptr.Index) {
	if seq := a.node(idx).Seq.Add(1); seq&1 != 0 {
		panic("arena: allocated a node that was not free (free-list corruption)")
	}
}

// Alloc returns a node, one line, and panics if the pool is exhausted.
// Benchmarks size the pool so that exhaustion indicates a leak or runaway
// limbo list. It calls tryAlloc itself, not TryAlloc, which keeps it
// small enough to inline into every tracker's Alloc.
func (a *Arena) Alloc(tid int) ptr.Index {
	idx, ok := a.tryAlloc(tid, narrow)
	if !ok {
		panic("arena: out of nodes (reclamation too slow or leaking)")
	}
	return idx
}

// AllocWide is Alloc for a pair: a Node whose Tail is its own.
func (a *Arena) AllocWide(tid int) ptr.Index {
	idx, ok := a.tryAlloc(tid, wide)
	if !ok {
		panic("arena: out of nodes (reclamation too slow or leaking)")
	}
	return idx
}

// Free returns node idx to tid's shard: Release into a chain of one, then
// FreeChain. Freeing a node that is already free panics — Hyaline's
// reference-count arithmetic is validated against exactly this check.
func (a *Arena) Free(tid int, idx ptr.Index) {
	var c Chain
	a.Release(&c, idx)
	a.FreeChain(tid, &c)
}

// Chain is a list of released nodes waiting for one FreeChain: a
// reclamation pass's nodes, linked through Next, one list per class. The
// zero value is an empty chain; it is owned by the one goroutine that
// fills and pushes it.
type Chain struct {
	lists [classes]chainList
}

type chainList struct {
	head, tail ptr.Index // valid while n > 0
	n          int64
}

// Len returns the number of nodes in the chain, pairs included.
func (c *Chain) Len() int64 { return c.lists[narrow].n + c.lists[wide].n }

// Release frees node idx into c: it bumps the incarnation stamp (a node
// already free, or already in a chain, panics "double free"), frees the
// node's blobs, poisons every word but Next and Seq so stale readers can
// be caught — a pair's Tail too, and nothing past a node that is not a
// pair — and links the node at the head of its class's list in c. The
// node cannot be allocated again until FreeChain pushes c. The stores are
// plain outside race builds (ptr.StoreOwned, see the package doc).
func (a *Arena) Release(c *Chain, idx ptr.Index) {
	n := a.Node(idx)
	seq := n.Seq.Add(1)
	if seq&1 == 0 {
		panic("arena: double free")
	}
	if a.blobs != nil {
		// The node owns its byte payloads: release them with it, before
		// the poison stores below overwrite the refs. Freeing here — and
		// nowhere else — is what makes blob safety exactly node safety
		// under every scheme. Reads happen after the Seq check so a
		// double-freed node cannot double-free its blobs.
		if ref := BlobRef(n.Key.Load()); !ref.IsNil() {
			a.freeBlob(ref)
		}
		if ref := BlobRef(n.Val.Load()); !ref.IsNil() {
			a.freeBlob(ref)
		}
	}
	ptr.StoreOwned(&n.BatchLink, Poison)
	ptr.StoreOwned(&n.Refs, Poison)
	ptr.StoreOwned(&n.Key, Poison)
	ptr.StoreOwned(&n.Val, Poison)
	ptr.StoreOwned(&n.Left, Poison)
	ptr.StoreOwned(&n.Right, Poison)
	l := &c.lists[narrow]
	if seq&pairSeq != 0 {
		t := n.Tail()
		ptr.StoreOwned(&t.Aux, Poison)
		for i := range t.Extra {
			ptr.StoreOwned(&t.Extra[i], Poison)
		}
		l = &c.lists[wide]
	}
	if l.n == 0 {
		l.tail = idx // its link is the shard's old head, set by FreeChain
	} else {
		ptr.StoreOwned(&n.Next, uint64(l.head)+1)
	}
	l.head = idx
	l.n++
}

// FreeChain pushes every node of c onto tid's shard with one CAS per
// non-empty class list, head first in line for the next pop, makes one
// counter add, and empties c. The CAS is what publishes a list: it orders
// Release's plain stores before any pop that can return one of its nodes.
func (a *Arena) FreeChain(tid int, c *Chain) {
	s := tid & (shards - 1)
	n := int64(0)
	for k := range c.lists {
		if l := &c.lists[k]; l.n > 0 {
			a.push(class(k), s, l)
			n += l.n
		}
	}
	if n > 0 {
		a.counters[s].freed.Add(n)
		*c = Chain{}
	}
}

// push links list l onto shard s of class c.
func (a *Arena) push(c class, s int, l *chainList) {
	head, tail := &a.free[c][s].head, &a.node(l.tail).Next
	for {
		h := head.Load()
		ptr.StoreOwned(tail, h&headIdxMask)
		if head.CompareAndSwap(h, ((h&^headIdxMask)+headTagIncr)|(uint64(l.head)+1)) {
			if h&headIdxMask == 0 {
				a.markNonEmpty(c, s)
			}
			return
		}
	}
}

// Reset returns the arena to its freshly constructed state, zeroed over
// both ends the frontier ever carved. It must not race with any
// concurrent use; the benchmark harness calls it between runs so that
// multi-gigabyte arenas are recycled with their touched pages resident
// and their untouched pages never zeroed.
func (a *Arena) Reset() {
	// The counts may overshoot the capacity (see carve), never by more
	// than the racing claims.
	f, limit := a.frontier.Load(), uint64(a.capacity)
	clear(a.nodes[:min(f&headIdxMask, limit)])
	clear(a.nodes[uint64(len(a.nodes))-2*min(f>>32, limit):])
	a.frontier.Store(0)
	for c := range a.free {
		a.nonEmpty[c].Store(0)
		for s := range a.free[c] {
			a.free[c][s].head.Store(0)
		}
	}
	for s := range a.counters {
		a.counters[s].allocated.Store(0)
		a.counters[s].freed.Store(0)
	}
	if a.blobs != nil {
		a.blobs.reset()
	}
}

// Stats reports lifetime allocation counters.
type Stats struct {
	Allocated int64 // total successful Allocs
	Freed     int64 // total Frees
}

// Stats returns a snapshot of the arena counters. Live = Allocated-Freed.
func (a *Arena) Stats() Stats {
	var s Stats
	for i := range a.counters {
		s.Allocated += a.counters[i].allocated.Load()
		s.Freed += a.counters[i].freed.Load()
	}
	return s
}

// Live returns the number of nodes currently allocated (not on the free
// list). It is approximate under concurrency.
func (a *Arena) Live() int64 {
	s := a.Stats()
	return s.Allocated - s.Freed
}
