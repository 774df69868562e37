// Package ibr implements 2GE interval-based reclamation (Wen et al.
// [35]), the strongest baseline in the paper's evaluation and the source
// of the birth-era idea Hyaline-S adopts.
//
// Every thread inside an operation advertises a reservation interval
// [lower, upper]: lower is the era at Enter, upper is raised to the
// current era on every dereference. Nodes carry a [birth, retire] era
// lifespan. A limbo node is freed once its lifespan overlaps no thread's
// reservation interval. Like EBR the API needs only an enter/leave
// bracket plus a tagged read — no per-pointer unreserve — which is why
// the paper calls the 2GE variant's API "Simple (2GE)".
package ibr

import (
	"sync/atomic"

	"hyaline/internal/arena"
	"hyaline/internal/ptr"
	"hyaline/internal/smr"
)

// Config parameterizes the tracker.
type Config struct {
	// MaxThreads bounds the number of distinct tids.
	MaxThreads int
	// Freq advances the global era every Freq allocations per thread.
	// Default 64.
	Freq int
	// ScanThreshold triggers a scan once a thread's limbo list holds this
	// many nodes. Default 128.
	ScanThreshold int
}

func (c *Config) fill() {
	if c.Freq <= 0 {
		c.Freq = 64
	}
	if c.ScanThreshold <= 0 {
		c.ScanThreshold = 128
	}
}

type interval struct {
	lower atomic.Uint64 // 0 = inactive
	upper atomic.Uint64
	_     [6]uint64
}

type threadState struct {
	limboHead ptr.Word
	// nextScan is the adaptive scan trigger: when pinned garbage keeps
	// a long limbo list alive, rescanning every ScanThreshold retires
	// would be quadratic, so the trigger moves with the surviving count.
	nextScan     int
	limboCount   int
	allocCounter int
	_            [4]uint64
}

// Tracker is the 2GE interval-based reclamation scheme.
type Tracker struct {
	// era is the global era clock. It advances every Freq allocations
	// per thread, so it leads the struct on a cache line of its own: an
	// advance must not invalidate the slice headers below, which every
	// operation reads (TestEraOwnLine).
	era atomic.Uint64
	_   [56]byte

	arena    *arena.Arena
	counters *smr.Counters
	cfg      Config

	resv    []interval
	threads []threadState
}

var (
	_ smr.Tracker = (*Tracker)(nil)
	_ smr.Flusher = (*Tracker)(nil)
)

// New creates a 2GE-IBR tracker over a.
func New(a *arena.Arena, cfg Config) *Tracker {
	cfg.fill()
	t := &Tracker{
		arena:    a,
		counters: smr.NewCounters(cfg.MaxThreads),
		cfg:      cfg,
		resv:     make([]interval, cfg.MaxThreads),
		threads:  make([]threadState, cfg.MaxThreads),
	}
	t.era.Store(1)
	return t
}

// Name implements smr.Tracker.
func (t *Tracker) Name() string { return "ibr" }

// Enter implements smr.Tracker: open the reservation interval at the
// current era.
func (t *Tracker) Enter(tid int) {
	e := t.era.Load()
	iv := &t.resv[tid]
	iv.upper.Store(e)
	iv.lower.Store(e)
}

// Leave implements smr.Tracker: close the interval.
func (t *Tracker) Leave(tid int) {
	iv := &t.resv[tid]
	iv.lower.Store(0)
	iv.upper.Store(0)
}

// Alloc implements smr.Tracker: stamp the birth era.
func (t *Tracker) Alloc(tid int) ptr.Index {
	t.counters.Alloc(tid)
	ts := &t.threads[tid]
	ts.allocCounter++
	if ts.allocCounter%t.cfg.Freq == 0 {
		t.era.Add(1)
	}
	idx := t.arena.Alloc(tid)
	// The node is not published yet: a plain store (ptr.StoreOwned).
	ptr.StoreOwned(&t.arena.Node(idx).Refs, t.era.Load())
	return idx
}

// Protect implements smr.Tracker: raise upper to the current era and loop
// until the clock is stable around the load, guaranteeing that any node
// read was born at or before the advertised upper bound.
func (t *Tracker) Protect(tid, _ int, addr *atomic.Uint64) ptr.Word {
	iv := &t.resv[tid]
	prev := iv.upper.Load()
	for {
		w := addr.Load()
		e := t.era.Load()
		if e == prev {
			return w
		}
		iv.upper.Store(e)
		prev = e
	}
}

// Retire implements smr.Tracker: stamp the retire era and park the node.
func (t *Tracker) Retire(tid int, idx ptr.Index) {
	t.counters.Retire(tid)
	ts := &t.threads[tid]
	n := t.arena.Node(idx)
	n.BatchLink.Store(t.era.Load()) // retire era
	n.Next.Store(ts.limboHead)
	ts.limboHead = ptr.Pack(idx)
	ts.limboCount++
	if ts.nextScan < t.cfg.ScanThreshold {
		ts.nextScan = t.cfg.ScanThreshold
	}
	if ts.limboCount >= ts.nextScan {
		t.scan(tid)
	}
}

// scan frees limbo nodes whose [birth, retire] lifespan overlaps no
// reservation interval.
func (t *Tracker) scan(tid int) {
	t.counters.Scan(tid)
	ts := &t.threads[tid]
	var keepHead ptr.Word
	keepCount := 0
	var freed arena.Chain
	for w := ts.limboHead; !ptr.IsNil(w); {
		n := t.arena.Deref(w)
		next := n.Next.Load()
		if t.canFree(n) {
			t.arena.Release(&freed, ptr.Idx(w))
		} else {
			n.Next.Store(keepHead)
			keepHead = w
			keepCount++
		}
		w = next
	}
	ts.limboHead = keepHead
	ts.limboCount = keepCount
	// Re-arm the adaptive trigger from the surviving count here, not at
	// the Retire call site: a scan reached through Flush must also
	// lower the trigger, or a limbo list that once ballooned behind a
	// stalled reader stops scanning after the flush drains it — no
	// retire-triggered scan would fire again until the list re-grew to
	// the old high-water mark.
	ts.nextScan = keepCount + t.cfg.ScanThreshold
	if n := freed.Len(); n > 0 {
		t.arena.FreeChain(tid, &freed)
		t.counters.Free(tid, n)
	}
}

func (t *Tracker) canFree(n *arena.Node) bool {
	birth := n.Refs.Load()
	retire := n.BatchLink.Load()
	for i := range t.resv {
		iv := &t.resv[i]
		lo := iv.lower.Load()
		if lo == 0 {
			continue // inactive
		}
		hi := iv.upper.Load()
		if lo <= retire && birth <= hi {
			return false // lifespan intersects the reservation
		}
	}
	return true
}

// Flush implements smr.Flusher.
func (t *Tracker) Flush(tid int) {
	t.era.Add(1)
	t.scan(tid)
}

// Stats implements smr.Tracker.
func (t *Tracker) Stats() smr.Stats { return t.counters.Sum() }

// Properties implements smr.Tracker (Table 1 row "IBR").
func (t *Tracker) Properties() smr.Properties {
	return smr.Properties{
		Scheme:      "IBR",
		BasedOn:     "EBR, HP",
		Performance: "Fast",
		Robust:      "Yes",
		Transparent: "No (retire)",
		Reclamation: "O(n)",
		API:         "Simple (2GE)",
	}
}
