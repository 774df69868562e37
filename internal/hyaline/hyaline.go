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
	// Slots is k, the number of retirement lists (power of two). Ignored
	// by One/RobustOne. Default: 2×GOMAXPROCS rounded up to a power of
	// two, but at least 1; the paper caps it at 128 on a 72-core box.
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

// threadState is per-tid bookkeeping: the current slot and handle, the
// retire batch under construction, and the thread-local era counter.
type threadState struct {
	slot   int
	handle ptr.Word

	// Batch under construction.
	batchRefs  ptr.Word // REFS node (first retired into the batch)
	batchChain ptr.Word // newest node of the chain (REFS.BatchLink target)
	batchCount int
	batchMin   uint64 // minimum birth era in the batch

	allocCounter int

	// deferred is the reap list (§4.1): batches whose counters we dropped
	// to zero are freed after traversal completes, restoring FIFO order.
	deferred []ptr.Word

	_ [4]uint64
}

// Tracker implements one of the four Hyaline variants.
type Tracker struct {
	arena    *arena.Arena
	counters *smr.Counters
	cfg      Config

	// k is the current slot count; it only changes when Resize is on.
	k atomic.Uint64

	// dir is the §4.3 directory of slots: dir[0] holds the initial kmin
	// slots; dir[s] (s ≥ 1) covers indices [kmin·2^(s-1), kmin·2^s).
	dir  [33]atomic.Pointer[[]slotState]
	kmin int

	allocEra atomic.Uint64 // global era clock (Robust variants)

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
		arena:    a,
		counters: smr.NewCounters(cfg.MaxThreads),
		cfg:      cfg,
		kmin:     cfg.Slots,
		threads:  make([]threadState, cfg.MaxThreads),
	}
	block := make([]slotState, cfg.Slots)
	t.dir[0].Store(&block)
	t.k.Store(uint64(cfg.Slots))
	t.allocEra.Store(1)
	// Fig. 5's enter(int *slot) persists the slot across operations;
	// threads start spread by ID.
	for i := range t.threads {
		t.threads[i].slot = i % cfg.Slots
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

// Arena returns the arena this tracker manages.
func (t *Tracker) Arena() *arena.Arena { return t.arena }

// Slots returns the current slot count k (it grows only under Resize).
func (t *Tracker) Slots() int { return int(t.k.Load()) }

// Enter implements smr.Tracker (Fig. 3 enter / Fig. 4 enter).
func (t *Tracker) Enter(tid int) {
	ts := &t.threads[tid]
	switch t.cfg.Variant {
	case One, RobustOne:
		// Fig. 4: the thread owns its slot; plain store, wait-free.
		ts.slot = tid
		t.slot(tid).head.Store(packHead(1, ptr.Nil))
		ts.handle = ptr.Nil
	case Robust:
		// Fig. 5: rotate away from slots saturated by stalled threads.
		k := int(t.k.Load())
		slot := ts.slot
		if slot >= k {
			slot = tid & (k - 1)
		}
		for tries := 0; t.slot(slot).ack.Load() >= t.cfg.AckThreshold; {
			slot = (slot + 1) & (k - 1)
			tries++
			if tries == k {
				// All k slots look stalled.
				if t.cfg.Resize {
					k = t.grow(k)
					slot = tid & (k - 1)
					tries = 0
					continue
				}
				break // capped: fall back to the least-bad option
			}
		}
		ts.slot = slot
		old := t.slot(slot).head.Add(hrefUnit) - hrefUnit
		ts.handle = headPtr(old)
	default:
		k := int(t.k.Load())
		slot := tid & (k - 1)
		ts.slot = slot
		old := t.slot(slot).head.Add(hrefUnit) - hrefUnit
		ts.handle = headPtr(old)
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
	slot := ts.slot
	st := t.slot(slot)

	switch t.cfg.Variant {
	case One, RobustOne:
		old := st.head.Swap(packHead(0, ptr.Nil))
		if p := headPtr(old); !ptr.IsNil(p) {
			t.traverse(tid, slot, p, ts.handle)
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
			next = t.arena.Deref(curr).Next.Load()
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
		t.traverse(tid, slot, next, handle)
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
	slot := ts.slot
	st := t.slot(slot)
	head := st.head.Load()
	curr := headPtr(head)
	if curr != ts.handle {
		next := t.arena.Deref(curr).Next.Load()
		t.traverse(tid, slot, next, ts.handle)
		ts.handle = curr
	}
	t.reap(tid, ts)
}

// Alloc implements smr.Tracker. Robust variants stamp the birth era
// (Fig. 5 init_node); the era clock advances every Freq allocations.
func (t *Tracker) Alloc(tid int) ptr.Index {
	t.counters.Alloc(tid)
	idx := t.arena.Alloc(tid)
	if t.robust() {
		ts := &t.threads[tid]
		ts.allocCounter++
		if ts.allocCounter%t.cfg.Freq == 0 {
			t.allocEra.Add(1)
		}
		// Birth era shares space with the batch chain link (§4.2): it
		// only needs to survive until the node joins a batch.
		t.arena.Node(idx).Refs.Store(t.allocEra.Load())
	}
	return idx
}

func (t *Tracker) robust() bool {
	return t.cfg.Variant == Robust || t.cfg.Variant == RobustOne
}

// Retire implements smr.Tracker: accumulate the node into the thread's
// batch; once the batch exceeds both MinBatch and the current slot count,
// push it to the slots (Fig. 3 retire).
func (t *Tracker) Retire(tid int, idx ptr.Index) {
	t.counters.Retire(tid)
	ts := &t.threads[tid]
	n := t.arena.Node(idx)
	w := ptr.Pack(idx)

	birth := uint64(0)
	if t.robust() {
		birth = n.Refs.Load()
	}

	if ptr.IsNil(ts.batchRefs) {
		// First node of a new batch becomes the REFS node.
		ts.batchRefs = w
		ts.batchChain = w // chain terminator: walking stops at REFS
		ts.batchMin = birth
		ts.batchCount = 1
	} else {
		n.BatchLink.Store(ts.batchRefs)
		n.Refs.Store(ts.batchChain) // batch_next, overwrites the birth era
		ts.batchChain = w
		ts.batchCount++
		if birth < ts.batchMin {
			ts.batchMin = birth
		}
	}

	k := int(t.k.Load())
	if ts.batchCount >= t.cfg.MinBatch && ts.batchCount > k {
		t.retireBatch(tid, ts)
	}
}

// retireBatch finalizes and publishes the thread's batch (Fig. 3 retire,
// with the Fig. 4 and Fig. 5 replacements for the respective variants).
func (t *Tracker) retireBatch(tid int, ts *threadState) {
	k := int(t.k.Load())
	adjs := adjsFor(k)
	refsW := ts.batchRefs
	refs := t.arena.Deref(refsW)
	refs.BatchLink.Store(ts.batchChain) // chain entry for free_batch
	refs.Next.Store(adjs)               // per-batch Adjs (§4.3)
	refs.Refs.Store(0)                  // NRef starts at 0
	minBirth := ts.batchMin

	robustS := t.cfg.Variant == Robust
	oneVariant := t.cfg.Variant == One || t.cfg.Variant == RobustOne

	cur := ts.batchChain // nodes handed out to slots, one each
	var empty uint64     // accumulated Adjs for skipped slots (Basic/Robust)
	doAdj := false       // any slot skipped?
	inserts := uint64(0) // Fig. 4: number of slots inserted into

	for slot := 0; slot < k; slot++ {
		st := t.slot(slot)
		for {
			head := st.head.Load()
			if headRef(head) == 0 ||
				(t.robust() && st.access.Load() < minBirth) {
				// REF #1#: empty or era-stale slot (Fig. 5 line 15).
				empty += adjs
				doAdj = true
				break
			}
			node := t.arena.Deref(cur)
			// Read the chain successor before publishing: after the last
			// CAS the whole batch may be adjusted and freed by others.
			nextInChain := node.Refs.Load()
			node.Next.Store(headPtr(head))
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

	ts.batchRefs = ptr.Nil
	ts.batchChain = ptr.Nil
	ts.batchCount = 0
	ts.batchMin = 0
	t.reap(tid, ts)
}

// batchAdjs returns the Adjs constant recorded in the batch that node w
// belongs to (§4.3: stored in the REFS node's unused Next field).
func (t *Tracker) batchAdjs(w ptr.Word) uint64 {
	refs := t.arena.Deref(t.arena.Deref(w).BatchLink.Load())
	return refs.Next.Load()
}

// adjust adds val to the reference counter of w's batch and defers the
// batch for freeing when the counter returns to zero (Fig. 3 adjust).
// w must be an ordinary (non-REFS) node.
func (t *Tracker) adjust(tid int, w ptr.Word, val uint64) {
	refsW := t.arena.Deref(w).BatchLink.Load()
	refs := t.arena.Deref(refsW)
	if refs.Refs.Add(val) == 0 {
		t.freeBatchNow(tid, refsW)
	}
}

// traverse walks the retirement sublist from next through handle
// inclusive, dropping one reference per node (Fig. 3 traverse). For
// Hyaline-S it also acknowledges the traversed batches (Fig. 5).
func (t *Tracker) traverse(tid, slot int, next, handle ptr.Word) {
	ts := &t.threads[tid]
	counter := int64(0)
	for {
		curr := next
		if ptr.IsNil(curr) {
			break
		}
		counter++
		n := t.arena.Deref(curr)
		next = n.Next.Load()
		refsW := n.BatchLink.Load()
		refs := t.arena.Deref(refsW)
		if refs.Refs.Add(^uint64(0)) == 0 { // FAA(-1) reached zero
			ts.deferred = append(ts.deferred, refsW)
		}
		if curr == handle {
			break
		}
	}
	if t.cfg.Variant == Robust && counter > 0 {
		t.slot(slot).ack.Add(-counter)
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
// returns every node to the arena.
// Hyaline has no limbo-list scan; each batch walk is its reclamation
// pass, so it is what the Scans counter ticks on.
func (t *Tracker) freeBatchNow(tid int, refsW ptr.Word) {
	t.counters.Scan(tid)
	refs := t.arena.Deref(refsW)
	freed := int64(0)
	cur := refs.BatchLink.Load()
	for cur != refsW {
		next := t.arena.Deref(cur).Refs.Load()
		t.arena.Free(tid, ptr.Idx(cur))
		freed++
		cur = next
	}
	t.arena.Free(tid, ptr.Idx(refsW))
	freed++
	t.counters.Free(tid, freed)
}

// Protect implements smr.Tracker. Robust variants implement Fig. 5 deref:
// keep the slot's access era in sync with the global era clock around the
// pointer load; the others are plain loads.
func (t *Tracker) Protect(tid, _ int, addr *atomic.Uint64) ptr.Word {
	if !t.robust() {
		return addr.Load()
	}
	ts := &t.threads[tid]
	st := t.slot(ts.slot)
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

// Flush implements smr.Flusher: finalize the pending batch by padding it
// with dummy nodes (§2.4 notes local batches "can be immediately
// finalized by allocating a finite number of dummy nodes"). With no
// active threads this frees the batch on the spot.
func (t *Tracker) Flush(tid int) {
	ts := &t.threads[tid]
	if ptr.IsNil(ts.batchRefs) {
		return
	}
	k := int(t.k.Load())
	for ts.batchCount <= k {
		idx := t.Alloc(tid)
		t.counters.Retire(tid)
		// Inline the batch-append of Retire for the dummy node.
		n := t.arena.Node(idx)
		// Dummies never carry payloads, but a recycled node still holds
		// poison in Key/Val; clear both so a blob-enabled arena's Free
		// doesn't decode the poison as a BlobRef.
		n.Key.Store(0)
		n.Val.Store(0)
		birth := uint64(0)
		if t.robust() {
			birth = n.Refs.Load()
			if birth < ts.batchMin {
				ts.batchMin = birth
			}
		}
		n.BatchLink.Store(ts.batchRefs)
		n.Refs.Store(ts.batchChain)
		ts.batchChain = ptr.Pack(idx)
		ts.batchCount++
	}
	t.retireBatch(tid, ts)
}

// Stats implements smr.Tracker.
func (t *Tracker) Stats() smr.Stats { return t.counters.Sum() }

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
