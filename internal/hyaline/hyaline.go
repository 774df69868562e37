// Package hyaline implements the paper's contribution: the Hyaline,
// Hyaline-1, Hyaline-S and Hyaline-1S lock-free safe memory reclamation
// algorithms (Nikolaev & Ravindran, PODC 2019 / arXiv:1905.07903).
//
// Hyaline tracks active threads with reference counters attached to
// batches of retired nodes rather than to individual accesses. Each of k
// slots holds a retirement list headed by a [HRef, HPtr] tuple: HRef
// counts threads currently inside operations that entered through this
// slot, HPtr points at the newest retired node. A thread that enters
// snapshots HPtr as its handle; when it leaves it decrements the
// reference counts of every node retired since — and the thread holding
// the last reference frees the batch. Tracking is fully asynchronous: no
// thread ever scans other threads' state, which is what makes the scheme
// transparent (threads are "off the hook" after leave) and O(1).
//
// The paper's [HRef, HPtr] tuple requires a double-width CAS on 64-bit
// machines with full-width pointers. Our simulated heap addresses nodes
// with 48-bit indices, so the tuple packs into a single uint64
// (HRef in the top 16 bits) — the same squeezing the paper describes for
// SPARC (§2.4) — and plain single-word CAS implements the algorithm of
// Figure 3 verbatim.
//
// Reference counts use the paper's unsigned wrap-around trick (§3.2):
// with k a power of two and Adjs = 2^64/k, a batch's counter returns to
// exactly zero only after all k per-slot adjustments and all thread
// decrements have been applied; Go's uint64 addition wraps, so
// "FAA(&NRef, val) = -val" becomes "Add(val) == 0".
//
// Node layout within a batch (three header words per node, §2.4):
//
//	ordinary node:  Next = per-slot retirement-list link
//	                BatchLink = reference to the batch's REFS node
//	                Refs = next node in the batch chain (batch_next)
//	REFS node:      Next = the batch's Adjs constant (§4.3)
//	                BatchLink = first node of the batch chain
//	                Refs = the batch reference counter NRef
//
// The REFS node is never inserted into a slot list, which is why batches
// must contain strictly more nodes than there are slots.
//
// One refinement here is not in the paper: era-segregated batches. Fig. 5
// lets retire skip a slot whose access era is below the batch's minimum
// birth era, so a single old node makes its whole batch reachable from a
// stalled slot, and a stalled thread ends up pinning a multiple of what
// it can actually reach. A Hyaline-S/1S thread therefore builds two
// batches and routes each retired node by its birth era against the
// oldest access era among the occupied slots (read while publishing the
// previous batch): nodes a stale slot may still reach fill one batch,
// younger ones the other, which the stale slot is skipped for. The
// routing decides only which batch a node joins. Every batch still
// records the true minimum of its nodes' birth eras and is published
// under Fig. 5's unchanged skip rule, so a stale or wrong boundary costs
// memory, never safety. With it the plateau under a stalled thread is
// the era bound: the nodes born before that thread's slot went stale.
package hyaline

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"

	"hyaline/internal/arena"
	"hyaline/internal/ptr"
	"hyaline/internal/smr"
)

// Variant selects one of the paper's four algorithms.
type Variant int

const (
	// Basic is Hyaline (Fig. 3): k shared slots, double-width-CAS style.
	Basic Variant = iota + 1
	// One is Hyaline-1 (Fig. 4): one slot per thread, single-width CAS,
	// wait-free enter/leave.
	One
	// Robust is Hyaline-S (Fig. 5): Basic plus birth eras, per-slot access
	// eras and Acks, tolerating stalled threads.
	Robust
	// RobustOne is Hyaline-1S: One plus birth eras.
	RobustOne
)

func (v Variant) String() string {
	switch v {
	case Basic:
		return "hyaline"
	case One:
		return "hyaline-1"
	case Robust:
		return "hyaline-s"
	case RobustOne:
		return "hyaline-1s"
	default:
		return fmt.Sprintf("hyaline-variant(%d)", int(v))
	}
}

// Config parameterizes a tracker.
type Config struct {
	// Variant selects the algorithm. Default Basic.
	Variant Variant
	// MaxThreads bounds the number of distinct tids. For One/RobustOne
	// each thread owns a slot, so k = MaxThreads.
	MaxThreads int
	// Slots is k, the number of retirement lists, rounded up to a power
	// of two. Ignored by One/RobustOne. Default for Basic: GOMAXPROCS.
	// Default for Robust: max(GOMAXPROCS, MaxThreads), capped at the
	// paper's 128 — a slot per thread, so a stalled thread's slot goes
	// era-stale at once and running threads never share a head with it.
	Slots int
	// MinBatch is the minimum batch size. The effective batch size is
	// max(MinBatch, k+1), since a batch needs one node per slot plus the
	// REFS node. The paper uses at least 64.
	MinBatch int
	// Freq is the era-advance frequency for Robust/RobustOne: the global
	// era is incremented every Freq allocations (per thread). Default 64.
	Freq int
	// AckThreshold is the per-slot Ack level above which Robust's enter
	// assumes the slot is held by stalled threads (paper example: 8192).
	AckThreshold int64
	// Resize enables §4.3 adaptive slot resizing for Robust: when every
	// slot appears stalled, the slot count doubles (directory of slots).
	Resize bool
}

func (c *Config) fill() {
	if c.Variant == 0 {
		c.Variant = Basic
	}
	if c.MaxThreads <= 0 {
		c.MaxThreads = 1
	}
	switch c.Variant {
	case One, RobustOne:
		c.Slots = c.MaxThreads
	default:
		if c.Slots <= 0 {
			// The paper sizes k as the next power of two above the core
			// count (128 on its 72-core machine).
			c.Slots = runtime.GOMAXPROCS(0)
			if c.Variant == Robust {
				// A slot shared with a stalled thread stays era-fresh
				// until its Ack crosses AckThreshold, pinning
				// AckThreshold batches; a slot per tid avoids sharing
				// for as long as the paper's cap allows.
				c.Slots = min(max(c.Slots, c.MaxThreads), maxDefaultSlots)
			}
		}
		if c.Slots&(c.Slots-1) != 0 {
			// Round up to a power of two, as §3.2 requires.
			c.Slots = 1 << bits.Len(uint(c.Slots))
		}
	}
	if c.MinBatch <= 0 {
		c.MinBatch = 64
	}
	if c.Freq <= 0 {
		c.Freq = 64
	}
	if c.AckThreshold <= 0 {
		c.AckThreshold = 8192
	}
	if c.Resize && c.Variant != Robust {
		c.Resize = false // resizing applies only to Hyaline-S
	}
}

// maxDefaultSlots is the paper's cap on k (§6: 128 on its 72-core box).
const maxDefaultSlots = 128

// head-word packing: HRef in bits 48..63, HPtr (a ptr.Word without mark
// bits) in bits 0..47.
const (
	hptrBits = 48
	hptrMask = uint64(1)<<hptrBits - 1
	hrefUnit = uint64(1) << hptrBits
)

func headRef(w uint64) uint64   { return w >> hptrBits }
func headPtr(w uint64) ptr.Word { return w & hptrMask }
func packHead(ref uint64, p ptr.Word) uint64 {
	return ref<<hptrBits | p
}

// adjsFor computes the paper's Adjs constant for k slots:
// Adjs = 2^64 / k (mod 2^64), so k×Adjs wraps to exactly 0.
func adjsFor(k int) uint64 {
	shift := uint(64 - bits.TrailingZeros(uint(k)))
	return uint64(1) << (shift & 127) // shift==64 (k==1) yields 0 in Go
}

// slotState is one slot: the retirement-list head plus the Hyaline-S
// access era and Ack counter, padded to its own pair of cache lines.
type slotState struct {
	head   atomic.Uint64 // packed [HRef|HPtr]
	access atomic.Uint64 // per-slot access era (Robust variants)
	ack    atomic.Int64  // per-slot Ack (Robust)
	_      [13]uint64
}

// batch is a retire batch under construction.
type batch struct {
	refs     ptr.Word // REFS node (first retired into the batch)
	chain    ptr.Word // newest node of the chain (REFS.BatchLink target)
	count    int
	minBirth uint64 // minimum birth era in the batch
}

// threadState is per-tid bookkeeping: the current slot and handle, the
// retire batches under construction, and the thread-local era countdown.
// It is 128 bytes, so neighbouring tids do not share a cache line.
type threadState struct {
	// st is the slot entered through; slot blocks never move once
	// published, so the pointer stays valid across resizes.
	st     *slotState
	slot   int
	handle ptr.Word

	// batches[0] collects nodes born at or before boundary, batches[1]
	// the younger ones. boundary is the minimum access era over the
	// occupied slots as of the last published batch: a routing hint that
	// keeps nodes a stale slot can still reach out of the batches that
	// slot could otherwise be skipped for. The non-robust variants have
	// no eras (birth 0, boundary 0) and only ever fill batches[0].
	batches  [2]batch
	boundary uint64

	// eraCountdown counts allocations down to the next era advance.
	eraCountdown int

	// deferred is the reap list (§4.1): batches whose counters we dropped
	// to zero are freed after traversal completes, restoring FIFO order.
	deferred []ptr.Word
}

// Tracker implements one of the four Hyaline variants.
type Tracker struct {
	// allocEra is the global era clock (Robust variants). It advances
	// every Freq allocations per thread, so it leads the struct on a
	// cache line of its own: the fields below are read by every Enter,
	// Leave, Alloc, Retire and Protect, and an advance must not
	// invalidate them on every other core (TestAllocEraOwnLine).
	allocEra atomic.Uint64
	_        [56]byte

	smr.Base
	cfg Config

	// k is the current slot count; it only changes when Resize is on.
	k atomic.Uint64

	// dir is the §4.3 directory of slots: dir[0] holds the initial kmin
	// slots; dir[s] (s ≥ 1) covers indices [kmin·2^(s-1), kmin·2^s).
	dir  [33]atomic.Pointer[[]slotState]
	kmin int

	threads []threadState
}

var (
	_ smr.Tracker = (*Tracker)(nil)
	_ smr.Trimmer = (*Tracker)(nil)
	_ smr.Flusher = (*Tracker)(nil)
)

// New creates a Hyaline tracker over a.
func New(a *arena.Arena, cfg Config) *Tracker {
	cfg.fill()
	t := &Tracker{
		Base:    smr.NewBase(a, cfg.MaxThreads),
		cfg:     cfg,
		kmin:    cfg.Slots,
		threads: make([]threadState, cfg.MaxThreads),
	}
	block := make([]slotState, cfg.Slots)
	t.dir[0].Store(&block)
	t.k.Store(uint64(cfg.Slots))
	t.allocEra.Store(1)
	// Threads start spread by ID. Only Hyaline-S ever moves (Fig. 5's
	// enter(int *slot) persists the slot across operations).
	for i := range t.threads {
		ts := &t.threads[i]
		ts.slot = i % cfg.Slots
		ts.st = &block[ts.slot]
		ts.eraCountdown = cfg.Freq
	}
	return t
}

// slot returns the slot with index i through the directory.
func (t *Tracker) slot(i int) *slotState {
	if i < t.kmin {
		blk := t.dir[0].Load()
		return &(*blk)[i]
	}
	s := bits.Len(uint(i / t.kmin)) // ≥ 1
	blk := t.dir[s].Load()
	base := t.kmin << (s - 1)
	return &(*blk)[i-base]
}

// Name implements smr.Tracker.
func (t *Tracker) Name() string { return t.cfg.Variant.String() }

// Slots returns the current slot count k (it grows only under Resize).
func (t *Tracker) Slots() int { return int(t.k.Load()) }

// Enter implements smr.Tracker (Fig. 3 enter / Fig. 4 enter).
func (t *Tracker) Enter(tid int) {
	ts := &t.threads[tid]
	switch t.cfg.Variant {
	case One, RobustOne:
		// Fig. 4: the thread owns its slot; plain store, wait-free.
		ts.st.head.Store(packHead(1, ptr.Nil))
		ts.handle = ptr.Nil
		return
	case Robust:
		// Fig. 5: rotate away from a slot saturated by stalled threads.
		if ts.st.ack.Load() >= t.cfg.AckThreshold {
			ts.slot = t.rotate(tid, ts.slot)
			ts.st = t.slot(ts.slot)
		}
	}
	old := ts.st.head.Add(hrefUnit) - hrefUnit
	ts.handle = headPtr(old)
}

// rotate picks the slot a Hyaline-S thread enters through once its
// current one has an Ack at or above the threshold (Fig. 5 lines 26-28).
// Among the slots under the threshold it prefers an unoccupied one: a
// slot nobody runs in costs no head contention, and leaving the occupied
// ones alone keeps running threads from piling onto one list.
func (t *Tracker) rotate(tid, slot int) int {
	k := int(t.k.Load())
	for {
		fallback := -1
		for i := 0; i < k; i++ {
			s := (slot + i) & (k - 1)
			st := t.slot(s)
			if st.ack.Load() >= t.cfg.AckThreshold {
				continue
			}
			if headRef(st.head.Load()) == 0 {
				return s
			}
			if fallback < 0 {
				fallback = s
			}
		}
		if fallback >= 0 {
			return fallback
		}
		// All k slots look stalled.
		if !t.cfg.Resize {
			return slot // capped: the least-bad option
		}
		k = t.grow(k)
		slot = tid & (k - 1)
	}
}

// grow doubles the slot count (§4.3). It returns the new k. Concurrent
// growers race benignly: losers observe the winner's block.
func (t *Tracker) grow(k int) int {
	s := bits.Len(uint(k / t.kmin)) // directory index of the next block
	if t.dir[s].Load() == nil {
		block := make([]slotState, k) // doubling adds exactly k slots
		t.dir[s].CompareAndSwap(nil, &block)
	}
	t.k.CompareAndSwap(uint64(k), uint64(2*k))
	return int(t.k.Load())
}

// Leave implements smr.Tracker (Fig. 3 leave / Fig. 4 leave).
func (t *Tracker) Leave(tid int) {
	ts := &t.threads[tid]
	st := ts.st

	switch t.cfg.Variant {
	case One, RobustOne:
		old := st.head.Swap(packHead(0, ptr.Nil))
		if p := headPtr(old); !ptr.IsNil(p) {
			t.traverse(ts, p, ts.handle)
		}
		t.reap(tid, ts)
		return
	}

	handle := ts.handle
	var curr ptr.Word
	var next ptr.Word
	var oldHead uint64
	for {
		oldHead = st.head.Load()
		curr = headPtr(oldHead)
		if curr != handle {
			// Reading the first node is safe: while we are counted in
			// HRef, the head batch cannot complete its adjustments.
			next = t.Arena.Deref(curr).Next.Load()
		}
		newPtr := curr
		if headRef(oldHead) == 1 {
			newPtr = ptr.Nil
		}
		newHead := packHead(headRef(oldHead)-1, newPtr)
		if st.head.CompareAndSwap(oldHead, newHead) {
			break
		}
	}
	if headRef(oldHead) == 1 && !ptr.IsNil(curr) {
		// Last thread out: treat the head node as a predecessor (its
		// batch will never get a successor in this emptied list).
		t.adjust(tid, curr, t.batchAdjs(curr))
	}
	if curr != handle {
		t.traverse(ts, next, handle)
		if t.cfg.Variant == Robust && headRef(oldHead) == 1 {
			// We emptied the list (HPtr reset to Nil) and dereferenced
			// the head batch via the HRef path. Nobody will ever
			// traverse that node again, so acknowledge it here —
			// otherwise every list reset leaves a +1 residue in Ack and
			// healthy slots eventually read as stalled.
			st.ack.Add(-1)
		}
	}
	t.reap(tid, ts)
}

// Trim implements smr.Trimmer (§3.3): dereference everything retired
// since enter (or the previous trim) without altering Head, and adopt the
// current head as the new handle.
func (t *Tracker) Trim(tid int) {
	ts := &t.threads[tid]
	curr := headPtr(ts.st.head.Load())
	if curr != ts.handle {
		next := t.Arena.Deref(curr).Next.Load()
		t.traverse(ts, next, ts.handle)
		ts.handle = curr
	}
	t.reap(tid, ts)
}

// Alloc implements smr.Tracker. Robust variants stamp the birth era
// (Fig. 5 init_node); the era clock advances every Freq allocations.
func (t *Tracker) Alloc(tid int) ptr.Index {
	t.Counters.Alloc(tid)
	idx := t.Arena.Alloc(tid)
	if t.robust() {
		ts := &t.threads[tid]
		ts.eraCountdown--
		if ts.eraCountdown == 0 {
			ts.eraCountdown = t.cfg.Freq
			t.allocEra.Add(1)
		}
		// Birth era shares space with the batch chain link (§4.2): it
		// only needs to survive until the node joins a batch. The node
		// is not published yet, so the store is plain (ptr.StoreOwned).
		ptr.StoreOwned(&t.Arena.Node(idx).Refs, t.allocEra.Load())
	}
	return idx
}

func (t *Tracker) robust() bool {
	return t.cfg.Variant == Robust || t.cfg.Variant == RobustOne
}

// Retire implements smr.Tracker: accumulate the node into one of the
// thread's batches; once that batch exceeds both MinBatch and the current
// slot count, push it to the slots (Fig. 3 retire).
func (t *Tracker) Retire(tid int, idx ptr.Index) {
	t.Counters.Retire(tid)
	ts := &t.threads[tid]
	n := t.Arena.Node(idx)

	birth := uint64(0)
	if t.robust() {
		birth = n.Refs.Load()
	}
	b := &ts.batches[0]
	if birth > ts.boundary {
		b = &ts.batches[1]
	}
	b.add(n, ptr.Pack(idx), birth)

	if b.count >= t.cfg.MinBatch && b.count > int(t.k.Load()) {
		t.retireBatch(tid, ts, b)
	}
}

// add appends node n (packed reference w, birth era birth) to the batch.
// The header stores are plain: nothing reads a node's BatchLink or Refs
// before retireBatch's slot CAS publishes the batch.
func (b *batch) add(n *arena.Node, w ptr.Word, birth uint64) {
	if ptr.IsNil(b.refs) {
		// First node of a new batch becomes the REFS node.
		b.refs = w
		b.chain = w // chain terminator: walking stops at REFS
		b.minBirth = birth
		b.count = 1
		return
	}
	ptr.StoreOwned(&n.BatchLink, b.refs)
	ptr.StoreOwned(&n.Refs, b.chain) // batch_next, overwrites the birth era
	b.chain = w
	b.count++
	if birth < b.minBirth {
		b.minBirth = birth
	}
}

// retireBatch finalizes and publishes batch b of ts (Fig. 3 retire, with
// the Fig. 4 and Fig. 5 replacements for the respective variants).
func (t *Tracker) retireBatch(tid int, ts *threadState, b *batch) {
	k := int(t.k.Load())
	adjs := adjsFor(k)
	refsW := b.refs
	refs := t.Arena.Deref(refsW)
	// The REFS node is reachable only through a node's BatchLink once a
	// slot CAS below publishes that node, so its header stores are plain
	// (ptr.StoreOwned), as is each node's list link before its CAS.
	ptr.StoreOwned(&refs.BatchLink, b.chain) // chain entry for free_batch
	ptr.StoreOwned(&refs.Next, adjs)         // per-batch Adjs (§4.3)
	ptr.StoreOwned(&refs.Refs, 0)            // NRef starts at 0
	minBirth := b.minBirth

	robust := t.robust()
	robustS := t.cfg.Variant == Robust
	oneVariant := t.cfg.Variant == One || t.cfg.Variant == RobustOne

	cur := b.chain       // nodes handed out to slots, one each
	var empty uint64     // accumulated Adjs for skipped slots (Basic/Robust)
	doAdj := false       // any slot skipped?
	inserts := uint64(0) // Fig. 4: number of slots inserted into
	// The routing boundary for the retires that follow: the oldest access
	// era among the occupied slots, from loads this loop makes anyway.
	boundary := ^uint64(0)

	for slot := 0; slot < k; slot++ {
		st := t.slot(slot)
		for {
			head := st.head.Load()
			skip := headRef(head) == 0
			if robust && !skip {
				access := st.access.Load()
				boundary = min(boundary, access)
				skip = access < minBirth
			}
			if skip {
				// REF #1#: empty or era-stale slot (Fig. 5 line 15).
				empty += adjs
				doAdj = true
				break
			}
			node := t.Arena.Deref(cur)
			// Read the chain successor before publishing: after the last
			// CAS the whole batch may be adjusted and freed by others.
			nextInChain := node.Refs.Load()
			ptr.StoreOwned(&node.Next, headPtr(head))
			newHead := packHead(headRef(head), cur)
			if !st.head.CompareAndSwap(head, newHead) {
				continue
			}
			if oneVariant {
				inserts++ // REF #2# replacement (Fig. 4)
			} else {
				// REF #2#: adjust the predecessor by Adjs + HRef.
				if !ptr.IsNil(headPtr(head)) {
					t.adjust(tid, headPtr(head),
						t.batchAdjs(headPtr(head))+headRef(head))
				}
				if robustS {
					st.ack.Add(int64(headRef(head))) // Fig. 5 line 16
				}
			}
			cur = nextInChain
			break
		}
	}

	// REF #3#: final adjustment on the batch's own counter. For Basic and
	// Robust this is guarded exactly like Fig. 3's "if doAdj": once the
	// last slot insertion is published, concurrent leavers may complete
	// the batch and free it, so touching NRef again would be a
	// use-after-free. Hyaline-1(S) always applies its Inserts total —
	// its counter cannot reach zero before that final addition.
	if oneVariant {
		if refs.Refs.Add(inserts) == 0 {
			t.freeBatchNow(tid, refsW)
		}
	} else if doAdj {
		if refs.Refs.Add(empty) == 0 {
			t.freeBatchNow(tid, refsW)
		}
	}

	*b = batch{}
	if robust {
		ts.boundary = boundary
	}
	t.reap(tid, ts)
}

// batchAdjs returns the Adjs constant recorded in the batch that node w
// belongs to (§4.3: stored in the REFS node's unused Next field).
func (t *Tracker) batchAdjs(w ptr.Word) uint64 {
	refs := t.Arena.Deref(t.Arena.Deref(w).BatchLink.Load())
	return refs.Next.Load()
}

// adjust adds val to the reference counter of w's batch and defers the
// batch for freeing when the counter returns to zero (Fig. 3 adjust).
// w must be an ordinary (non-REFS) node.
func (t *Tracker) adjust(tid int, w ptr.Word, val uint64) {
	refsW := t.Arena.Deref(w).BatchLink.Load()
	refs := t.Arena.Deref(refsW)
	if refs.Refs.Add(val) == 0 {
		t.freeBatchNow(tid, refsW)
	}
}

// traverse walks the retirement sublist from next through handle
// inclusive, dropping one reference per node (Fig. 3 traverse). For
// Hyaline-S it also acknowledges the traversed batches (Fig. 5).
func (t *Tracker) traverse(ts *threadState, next, handle ptr.Word) {
	counter := int64(0)
	for {
		curr := next
		if ptr.IsNil(curr) {
			break
		}
		counter++
		n := t.Arena.Deref(curr)
		next = n.Next.Load()
		refsW := n.BatchLink.Load()
		refs := t.Arena.Deref(refsW)
		if refs.Refs.Add(^uint64(0)) == 0 { // FAA(-1) reached zero
			ts.deferred = append(ts.deferred, refsW)
		}
		if curr == handle {
			break
		}
	}
	if t.cfg.Variant == Robust && counter > 0 {
		ts.st.ack.Add(-counter)
	}
}

// reap frees the deferred batches (§4.1: deallocation is deferred until
// after traversal completes, restoring FIFO order).
func (t *Tracker) reap(tid int, ts *threadState) {
	for _, refsW := range ts.deferred {
		t.freeBatchNow(tid, refsW)
	}
	ts.deferred = ts.deferred[:0]
}

// freeBatchNow walks the chain of the batch owned by REFS node refsW and
// returns every node to the arena with one push.
// Hyaline has no limbo-list scan; each batch walk is its reclamation
// pass, so it is what the Scans counter ticks on.
func (t *Tracker) freeBatchNow(tid int, refsW ptr.Word) {
	t.Counters.Scan(tid)
	refs := t.Arena.Deref(refsW)
	var freed arena.Chain
	cur := refs.BatchLink.Load()
	for cur != refsW {
		next := t.Arena.Deref(cur).Refs.Load()
		t.Arena.Release(&freed, ptr.Idx(cur))
		cur = next
	}
	t.Arena.Release(&freed, ptr.Idx(refsW))
	n := freed.Len()
	t.Arena.FreeChain(tid, &freed)
	t.Counters.Free(tid, n)
}

// Protect implements smr.Tracker. Robust variants implement Fig. 5 deref:
// keep the slot's access era in sync with the global era clock around the
// pointer load; the others are plain loads.
func (t *Tracker) Protect(tid, _ int, addr *atomic.Uint64) ptr.Word {
	if !t.robust() {
		return addr.Load()
	}
	st := t.threads[tid].st
	access := st.access.Load()
	for {
		w := addr.Load()
		alloc := t.allocEra.Load()
		if access == alloc {
			return w
		}
		access = t.touch(st, alloc)
	}
}

// PlainLoad implements smr.PlainLoader: Hyaline and Hyaline-1 take
// Protect's first branch, a bare load; the robust variants do not.
func (t *Tracker) PlainLoad() bool { return !t.robust() }

// touch raises the slot's access era to era (Fig. 5). Hyaline-1S owns its
// slot, so a plain store suffices; Hyaline-S shares slots and CAS-maxes.
func (t *Tracker) touch(st *slotState, era uint64) uint64 {
	if t.cfg.Variant == RobustOne {
		st.access.Store(era)
		return era
	}
	for {
		access := st.access.Load()
		if access >= era {
			return access
		}
		if st.access.CompareAndSwap(access, era) {
			return era
		}
	}
}

// Flush implements smr.Flusher: finalize the pending batches by padding
// them with dummy nodes (§2.4 notes local batches "can be immediately
// finalized by allocating a finite number of dummy nodes"). With no
// active threads this frees them on the spot.
func (t *Tracker) Flush(tid int) {
	ts := &t.threads[tid]
	k := int(t.k.Load())
	for i := range ts.batches {
		b := &ts.batches[i]
		if ptr.IsNil(b.refs) {
			continue
		}
		for b.count <= k {
			idx := t.Alloc(tid)
			t.Counters.Retire(tid)
			n := t.Arena.Node(idx)
			// Dummies never carry payloads, but a recycled node still
			// holds poison in Key/Val; clear both so a blob-enabled
			// arena's Free doesn't decode the poison as a BlobRef. The
			// dummy is never published to a structure: plain stores.
			ptr.StoreOwned(&n.Key, 0)
			ptr.StoreOwned(&n.Val, 0)
			birth := uint64(0)
			if t.robust() {
				birth = n.Refs.Load()
			}
			b.add(n, ptr.Pack(idx), birth)
		}
		t.retireBatch(tid, ts, b)
	}
}

// Properties implements smr.Tracker (Table 1 rows).
func (t *Tracker) Properties() smr.Properties {
	switch t.cfg.Variant {
	case One:
		return smr.Properties{
			Scheme: "Hyaline-1", BasedOn: "-", Performance: "Very fast",
			Robust: "No", Transparent: "Almost", Reclamation: "O(1)",
			API: "Very simple",
		}
	case Robust:
		robust := "Yes (needs resize)"
		if t.cfg.Resize {
			robust = "Yes"
		}
		return smr.Properties{
			Scheme: "Hyaline-S", BasedOn: "Hyaline, part. HE/IBR",
			Performance: "Fast or Very fast", Robust: robust,
			Transparent: "Yes", Reclamation: "~O(1)", API: "Simple",
		}
	case RobustOne:
		return smr.Properties{
			Scheme: "Hyaline-1S", BasedOn: "Hyaline-1, part. HE/IBR",
			Performance: "Fast or Very fast", Robust: "Yes",
			Transparent: "Almost", Reclamation: "O(1)", API: "Simple",
		}
	default:
		return smr.Properties{
			Scheme: "Hyaline", BasedOn: "-", Performance: "Very fast",
			Robust: "No", Transparent: "Yes", Reclamation: "~O(1)",
			API: "Very simple",
		}
	}
}
