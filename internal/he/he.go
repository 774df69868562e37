// Package he implements hazard eras (Ramalhete & Correia [31]), the
// baseline that reconciles hazard pointers with epochs: reservations hold
// era values instead of pointer addresses.
//
// A global era clock advances every Freq allocations. Nodes record their
// birth era on allocation (in the Refs header word) and their retire era
// on retirement (in BatchLink). Protect publishes the current era in a
// per-thread reservation slot and loops until the clock is stable around
// the pointer load. A limbo node is freed once no reservation era falls
// inside its [birth, retire] lifespan.
//
// HE is robust — a stalled thread pins only nodes whose lifespan covers
// its frozen reservations — but, like HP, pays a per-dereference
// publication, and its scan is O(mn).
package he

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
	// Eras is K, the per-thread reservation slot count. Default 8.
	Eras int
	// Freq advances the global era every Freq allocations per thread.
	// Default 64.
	Freq int
	// ScanThreshold triggers a scan once a thread's limbo list holds this
	// many nodes. Default 128.
	ScanThreshold int
}

func (c *Config) fill() {
	if c.Eras <= 0 {
		c.Eras = 8
	}
	if c.Freq <= 0 {
		c.Freq = 64
	}
	if c.ScanThreshold <= 0 {
		c.ScanThreshold = 128
	}
}

type eraRow struct {
	slots []atomic.Uint64 // reserved eras; 0 = empty
	_     [8]uint64
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

// Tracker is the hazard-eras scheme.
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

	resv    []eraRow
	threads []threadState
}

var (
	_ smr.Tracker = (*Tracker)(nil)
	_ smr.Flusher = (*Tracker)(nil)
)

// New creates a hazard-eras tracker over a.
func New(a *arena.Arena, cfg Config) *Tracker {
	cfg.fill()
	t := &Tracker{
		arena:    a,
		counters: smr.NewCounters(cfg.MaxThreads),
		cfg:      cfg,
		resv:     make([]eraRow, cfg.MaxThreads),
		threads:  make([]threadState, cfg.MaxThreads),
	}
	for i := range t.resv {
		t.resv[i].slots = make([]atomic.Uint64, cfg.Eras)
	}
	t.era.Store(1)
	return t
}

// Name implements smr.Tracker.
func (t *Tracker) Name() string { return "he" }

// Enter implements smr.Tracker: reserve the current era in slot 0 so the
// operation's entry point is covered before the first Protect.
func (t *Tracker) Enter(tid int) {
	t.resv[tid].slots[0].Store(t.era.Load())
}

// Leave implements smr.Tracker: drop all reservations.
func (t *Tracker) Leave(tid int) {
	row := &t.resv[tid]
	for i := range row.slots {
		row.slots[i].Store(0)
	}
}

// Alloc implements smr.Tracker: stamp the birth era (Refs header word).
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

// Protect implements smr.Tracker: publish the era and loop until the
// clock is stable around the load (get_protected of [31]).
func (t *Tracker) Protect(tid, slot int, addr *atomic.Uint64) ptr.Word {
	res := &t.resv[tid].slots[slot]
	prev := res.Load()
	for {
		w := addr.Load()
		e := t.era.Load()
		if e == prev {
			return w
		}
		res.Store(e)
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

// scan frees limbo nodes whose [birth, retire] lifespan no reservation
// era intersects.
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
		row := &t.resv[i]
		for j := range row.slots {
			r := row.slots[j].Load()
			if r != 0 && birth <= r && r <= retire {
				return false
			}
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

// Properties implements smr.Tracker (Table 1 row "HE").
func (t *Tracker) Properties() smr.Properties {
	return smr.Properties{
		Scheme:      "HE",
		BasedOn:     "EBR, HP",
		Performance: "Fast",
		Robust:      "Yes",
		Transparent: "No (retire)",
		Reclamation: "O(mn)",
		API:         "Harder",
	}
}
