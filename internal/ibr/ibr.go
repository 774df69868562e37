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
	"hyaline/internal/limbo"
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

// span is one open reservation interval in a pass's snapshot.
type span struct{ lower, upper uint64 }

// threadState is a tid's allocation count, which drives the era clock,
// and its reused interval snapshot buffer.
type threadState struct {
	allocCounter int
	scratch      []span
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

	smr.Base
	cfg Config

	resv    []interval
	limbo   limbo.List
	threads []threadState
}

var (
	_ smr.Tracker = (*Tracker)(nil)
	_ smr.Flusher = (*Tracker)(nil)
)

// New creates a 2GE-IBR tracker over a.
func New(a *arena.Arena, cfg Config) *Tracker {
	cfg.fill()
	base := smr.NewBase(a, cfg.MaxThreads)
	t := &Tracker{
		Base:    base,
		cfg:     cfg,
		resv:    make([]interval, cfg.MaxThreads),
		limbo:   limbo.New(base, cfg.MaxThreads, cfg.ScanThreshold),
		threads: make([]threadState, cfg.MaxThreads),
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
	t.Arena.Node(idx).BatchLink.Store(t.era.Load()) // retire era
	if t.limbo.Retire(tid, idx) {
		t.scan(tid)
	}
}

// scan frees limbo nodes whose [birth, retire] lifespan overlaps no
// reservation interval, checked against one snapshot of the open ones.
func (t *Tracker) scan(tid int) {
	ts := &t.threads[tid]
	open := ts.scratch[:0]
	for i := range t.resv {
		iv := &t.resv[i]
		if lo := iv.lower.Load(); lo != 0 { // 0 = inactive
			open = append(open, span{lo, iv.upper.Load()})
		}
	}
	ts.scratch = open
	t.limbo.Scan(tid, func(_ ptr.Word, n *arena.Node) bool {
		birth, retire := n.Refs.Load(), n.BatchLink.Load()
		for _, s := range open {
			if s.lower <= retire && birth <= s.upper {
				return true // lifespan intersects the reservation
			}
		}
		return false
	})
}

// Flush implements smr.Flusher.
func (t *Tracker) Flush(tid int) {
	t.era.Add(1)
	t.scan(tid)
}

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
