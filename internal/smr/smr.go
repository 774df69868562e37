// Package smr defines the common interface implemented by every safe
// memory reclamation (SMR) scheme in this repository: the four Hyaline
// variants (the paper's contribution) and the baselines it is evaluated
// against (Leaky, Epoch, HP, HE, IBR).
//
// The API mirrors the programming model of §2 of the paper and of the
// interval-based-reclamation test framework the paper's evaluation uses:
// every data structure operation is bracketed by Enter and Leave, every
// link dereference goes through Protect, and unlinked nodes are Retired
// rather than freed.
package smr

import (
	"sync/atomic"

	"hyaline/internal/arena"
	"hyaline/internal/ptr"
)

// Tracker is a safe memory reclamation scheme bound to one arena.
//
// Thread IDs are dense integers in [0, MaxThreads). They identify
// per-thread batches, limbo lists and reservations; for the transparent
// Hyaline variants the tid merely selects a slot and a local retire
// buffer, matching the paper's claim that no per-thread registration is
// needed.
type Tracker interface {
	// Name returns the scheme name as used in the paper's figures
	// (e.g. "hyaline", "hyaline-1s", "epoch", "hp").
	Name() string

	// Enter begins a data structure operation on behalf of tid.
	Enter(tid int)

	// Leave ends the operation. After Leave the thread is "off the hook":
	// it holds no references and (for Hyaline) need not check any of the
	// nodes it retired.
	Leave(tid int)

	// Alloc returns a fresh node, initialized for this scheme (e.g. birth
	// era recorded). It must be called between Enter and Leave.
	Alloc(tid int) ptr.Index

	// AllocWide is Alloc for a pair, a node whose Tail is its own (see
	// arena.Arena.AllocWide). The scheme treats it as one node.
	AllocWide(tid int) ptr.Index

	// Retire hands a node that has been unlinked from the data structure
	// to the reclamation scheme. The node must be unreachable from
	// subsequent operations.
	Retire(tid int, idx ptr.Index)

	// Dealloc frees a node that was never published — a speculative
	// allocation discarded after a failed CAS. No other thread can hold
	// a reference, so it bypasses reclamation entirely, exactly as
	// unmanaged code would call free() on it directly.
	Dealloc(tid int, idx ptr.Index)

	// Protect reads the link word *addr safely. slot distinguishes
	// simultaneously held protections (hazard-pointer or hazard-era
	// indexes); schemes that do not track individual pointers ignore it.
	// The returned word may carry mark/flag/tag bits.
	//
	// Structures do not call Protect directly: they dereference through
	// a Deref handle, which skips the call for schemes that declare
	// PlainLoad (see there for the contract).
	Protect(tid, slot int, addr *atomic.Uint64) ptr.Word

	// Stats returns reclamation counters accumulated since creation.
	Stats() Stats

	// Properties returns the qualitative Table 1 row for this scheme.
	Properties() Properties
}

// PlainLoader is the declaration a scheme makes, next to its Protect,
// that a dereference costs it nothing: in the paper Hyaline's deref is
// a plain load (Fig. 3 has no deref hook; only Hyaline-S/1S add Fig. 5's
// era check), as are Leaky's and Epoch's.
//
// By returning true from PlainLoad a scheme signs this contract, for
// the lifetime of the tracker: Protect(tid, slot, addr) returns exactly
// addr.Load() — mark, flag and tag bits included — reads and writes no
// other state, and may therefore be skipped. A scheme that publishes
// anything per dereference (a hazard pointer, an era, an interval) must
// not declare it. The method is deliberately not part of Tracker: a
// wrapper that embeds the Tracker interface does not inherit it, so a
// tracker that instruments or changes Protect is called on every hop
// unless it declares otherwise itself.
type PlainLoader interface {
	PlainLoad() bool
}

// Deref is the handle a data structure holds its tracker by: the
// tracker plus whether its Protect is a plain load, asked once at
// construction. Its own Protect shadows the tracker's and is small
// enough to inline, so a traversal hop under a PlainLoad scheme is one
// atomic load and under any other scheme the interface call it always
// was — one traversal per structure serves both. Everything else
// (Enter, Retire, ...) is the embedded tracker's. A structure that keeps
// only the handle cannot dereference past it.
type Deref struct {
	Tracker
	plain bool
}

// NewDeref builds the handle for tr. A tracker that does not implement
// PlainLoader (or answers false) is dereferenced through its Protect.
func NewDeref(tr Tracker) Deref {
	p, ok := tr.(PlainLoader)
	return Deref{Tracker: tr, plain: ok && p.PlainLoad()}
}

// Protect reads the link word *addr safely; see Tracker.Protect.
func (d Deref) Protect(tid, slot int, addr *atomic.Uint64) ptr.Word {
	if d.plain {
		return addr.Load()
	}
	return d.Tracker.Protect(tid, slot, addr)
}

// Trimmer is implemented by schemes that support the paper's §3.3 trim
// operation: logically leave-then-enter without touching the slot head.
// The handle returned by Trim replaces the one obtained at Enter.
type Trimmer interface {
	Tracker
	// Trim dereferences nodes retired since the last Enter/Trim and
	// returns a new handle, without altering Head.
	Trim(tid int)
}

// Flusher is implemented by schemes that can push pending reclamation
// work to completion when a thread quiesces: Hyaline finalizes a partial
// batch with dummy nodes (§2.4), epoch/era schemes force a scan of their
// limbo lists. Flush must be called outside Enter/Leave sections. It is
// best-effort: nodes still referenced by other threads stay unreclaimed.
type Flusher interface {
	Flush(tid int)
}

// Base is the state every tracker shares: the arena it allocates from
// and its per-thread counters. A tracker embeds it for Alloc,
// AllocWide, Dealloc and Stats. Schemes that stamp a birth era shadow
// Alloc and AllocWide: each calls Arena.Alloc or Arena.AllocWide, which
// inline, and then one helper the two share that counts and stamps.
type Base struct {
	Arena    *arena.Arena
	Counters *Counters
}

// NewBase binds a fresh counter set for maxThreads threads to a.
func NewBase(a *arena.Arena, maxThreads int) Base {
	return Base{Arena: a, Counters: NewCounters(maxThreads)}
}

// Alloc implements Tracker for schemes that record nothing per node.
func (b *Base) Alloc(tid int) ptr.Index {
	b.Counters.Alloc(tid)
	return b.Arena.Alloc(tid)
}

// AllocWide implements Tracker for schemes that record nothing per node.
func (b *Base) AllocWide(tid int) ptr.Index {
	b.Counters.Alloc(tid)
	return b.Arena.AllocWide(tid)
}

// Dealloc implements Tracker: a never-published speculative node is
// freed directly, as unmanaged code would, bypassing reclamation.
func (b *Base) Dealloc(tid int, idx ptr.Index) {
	b.Counters.Dealloc(tid)
	b.Arena.Free(tid, idx)
}

// Stats implements Tracker.
func (b *Base) Stats() Stats { return b.Counters.Sum() }

// Stats are cumulative reclamation counters.
type Stats struct {
	Allocated int64 // nodes handed out by Alloc
	Retired   int64 // nodes passed to Retire
	Freed     int64 // nodes returned to the arena
	Scans     int64 // reclamation passes over the limbo/retire lists
}

// Unreclaimed returns the number of retired-but-not-yet-freed nodes, the
// quantity plotted in Figures 9, 12, 14 and 16 of the paper.
func (s Stats) Unreclaimed() int64 { return s.Retired - s.Freed }

// Properties is a qualitative description of a scheme, reproducing the
// columns of Table 1.
type Properties struct {
	Scheme      string // display name
	BasedOn     string // lineage ("-" if original)
	Performance string // qualitative throughput class
	Robust      string // bounded garbage under stalled threads
	Transparent string // no per-thread registration / off-the-hook leave
	Reclamation string // asymptotic retire cost
	API         string // usage burden
}

// Counters is a per-thread sharded counter set used by schemes to track
// retire/free totals without adding a contended atomic to the hot path.
//
// Each tid's shard has one writer: the goroutine holding the tid, whose
// exclusivity the caller already guarantees (a tracker's per-tid state
// assumes it, and a leased tid passes between goroutines only through
// the lease's synchronizing handoff). So an update is a load and a plain
// store (ptr.StoreOwned), not a locked add. Sum may run on any goroutine
// beside the writers: its atomic loads see each word old or new, never
// torn, so every field of a snapshot is at most the true total, never
// falls between snapshots, and is exact once the writers are quiescent.
type Counters struct {
	shards []counterShard
}

type counterShard struct {
	allocated atomic.Uint64
	retired   atomic.Uint64
	freed     atomic.Uint64
	scans     atomic.Uint64
	_         [4]uint64 // pad to 64 B
}

// add bumps an owner-only counter word by n.
func add(w *atomic.Uint64, n int64) { ptr.StoreOwned(w, w.Load()+uint64(n)) }

// NewCounters creates counters for maxThreads threads.
func NewCounters(maxThreads int) *Counters {
	return &Counters{shards: make([]counterShard, maxThreads)}
}

// Alloc records one allocation by tid.
func (c *Counters) Alloc(tid int) { add(&c.shards[tid].allocated, 1) }

// Retire records one retirement by tid.
func (c *Counters) Retire(tid int) { add(&c.shards[tid].retired, 1) }

// RetireN records n retirements by tid.
func (c *Counters) RetireN(tid int, n int64) { add(&c.shards[tid].retired, n) }

// Dealloc records a free of a never-published node: it counts as retired
// and freed at once, so Unreclaimed and Live stay consistent.
func (c *Counters) Dealloc(tid int) {
	add(&c.shards[tid].retired, 1)
	add(&c.shards[tid].freed, 1)
}

// Free records n nodes freed by tid.
func (c *Counters) Free(tid int, n int64) { add(&c.shards[tid].freed, n) }

// Scan records one reclamation pass by tid.
func (c *Counters) Scan(tid int) { add(&c.shards[tid].scans, 1) }

// Sum folds the shards into a Stats snapshot.
func (c *Counters) Sum() Stats {
	var s Stats
	for i := range c.shards {
		s.Allocated += int64(c.shards[i].allocated.Load())
		s.Retired += int64(c.shards[i].retired.Load())
		s.Freed += int64(c.shards[i].freed.Load())
		s.Scans += int64(c.shards[i].scans.Load())
	}
	return s
}
