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
	"slices"
	"sync/atomic"

	"hyaline/internal/arena"
	"hyaline/internal/limbo"
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

// threadState is a tid's allocation count, which drives the era clock,
// and its reused era snapshot buffer.
type threadState struct {
	allocCounter int
	scratch      []uint64
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

	smr.Base
	cfg Config

	resv    []eraRow
	limbo   limbo.List
	threads []threadState
}

var (
	_ smr.Tracker = (*Tracker)(nil)
	_ smr.Flusher = (*Tracker)(nil)
)

// New creates a hazard-eras tracker over a.
func New(a *arena.Arena, cfg Config) *Tracker {
	cfg.fill()
	base := smr.NewBase(a, cfg.MaxThreads)
	t := &Tracker{
		Base:    base,
		cfg:     cfg,
		resv:    make([]eraRow, cfg.MaxThreads),
		limbo:   limbo.New(base, cfg.MaxThreads, cfg.ScanThreshold),
		threads: make([]threadState, cfg.MaxThreads),
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
func (t *Tracker) Alloc(tid int) ptr.Index { return t.born(tid, t.Arena.Alloc(tid)) }

// AllocWide implements smr.Tracker: a pair's birth era, as Alloc's.
func (t *Tracker) AllocWide(tid int) ptr.Index { return t.born(tid, t.Arena.AllocWide(tid)) }

// born counts tid's allocation of idx, advances the era clock every Freq
// allocations and stamps idx's birth era.
func (t *Tracker) born(tid int, idx ptr.Index) ptr.Index {
	ts := &t.threads[tid]
	ts.allocCounter++
	if ts.allocCounter%t.cfg.Freq == 0 {
		t.era.Add(1)
	}
	t.Counters.Alloc(tid)
	// The node is not published yet: a plain store (ptr.StoreOwned).
	ptr.StoreOwned(&t.Arena.Node(idx).Refs, t.era.Load())
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
	t.Arena.Node(idx).BatchLink.Store(t.era.Load()) // retire era
	if t.limbo.Retire(tid, idx) {
		t.scan(tid)
	}
}

// scan frees limbo nodes whose [birth, retire] lifespan no reservation
// era intersects. The reserved eras are snapshotted once and sorted, so
// a node is kept iff the first reserved era ≥ its birth is ≤ its retire:
// O(log R) on plain memory per node for R reservations.
func (t *Tracker) scan(tid int) {
	ts := &t.threads[tid]
	eras := ts.scratch[:0]
	for i := range t.resv {
		row := &t.resv[i]
		for j := range row.slots {
			if r := row.slots[j].Load(); r != 0 {
				eras = append(eras, r)
			}
		}
	}
	ts.scratch = eras
	slices.Sort(eras)
	t.limbo.Scan(tid, func(_ ptr.Word, n *arena.Node) bool {
		return covered(eras, n.Refs.Load(), n.BatchLink.Load())
	})
}

// covered reports whether the sorted eras hold one in [birth, retire].
func covered(eras []uint64, birth, retire uint64) bool {
	i, _ := slices.BinarySearch(eras, birth)
	return i < len(eras) && eras[i] <= retire
}

// Flush implements smr.Flusher.
func (t *Tracker) Flush(tid int) {
	t.era.Add(1)
	t.scan(tid)
}

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
