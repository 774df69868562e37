// Package ebr implements epoch-based reclamation, the "Epoch" baseline of
// the paper's evaluation (the variant used by the interval-based
// reclamation test framework [35], which itself descends from Fraser's
// epochs [18, 19] and Hart et al. [21]).
//
// Threads record the global epoch in a per-thread reservation on Enter
// and clear it on Leave. Retired nodes are tagged with the epoch current
// at retirement and parked on a per-thread limbo list; once the limbo
// list exceeds a threshold, every node whose retire epoch precedes the
// minimum reservation is freed. The global epoch advances every EpochFreq
// retirements.
//
// EBR is fast but not robust: a single stalled thread pins its
// reservation forever and no node retired after it entered is ever freed
// (Figure 10a).
package ebr

import (
	"math"
	"sync/atomic"

	"hyaline/internal/arena"
	"hyaline/internal/ptr"
	"hyaline/internal/smr"
)

// Config parameterizes the tracker.
type Config struct {
	// MaxThreads bounds the number of distinct tids.
	MaxThreads int
	// EpochFreq advances the global epoch every EpochFreq retirements
	// (per thread). Default 128.
	EpochFreq int
	// ScanThreshold triggers a reclamation scan once a thread's limbo
	// list holds this many nodes. Default 128.
	ScanThreshold int
}

func (c *Config) fill() {
	if c.EpochFreq == 0 {
		c.EpochFreq = 128
	}
	if c.ScanThreshold == 0 {
		c.ScanThreshold = 128
	}
}

// inactive marks a reservation slot as not inside an operation.
const inactive = math.MaxUint64

type reservation struct {
	epoch atomic.Uint64
	_     [7]uint64
}

type threadState struct {
	limboHead ptr.Word // intrusive list via Node.Next; thread-local
	// nextScan is the adaptive scan trigger: when pinned garbage keeps
	// a long limbo list alive, rescanning every ScanThreshold retires
	// would be quadratic, so the trigger moves with the surviving count.
	nextScan   int
	limboCount int
	retires    int
	_          [5]uint64
}

// Tracker is the epoch-based reclamation scheme.
type Tracker struct {
	// epoch is the global epoch. It advances every EpochFreq retirements
	// per thread, so it leads the struct on a cache line of its own: an
	// advance must not invalidate the slice headers below, which every
	// operation reads (TestEpochOwnLine).
	epoch atomic.Uint64
	_     [56]byte

	arena    *arena.Arena
	counters *smr.Counters
	cfg      Config

	resv    []reservation
	threads []threadState
}

var _ smr.Tracker = (*Tracker)(nil)

// New creates an EBR tracker over a.
func New(a *arena.Arena, cfg Config) *Tracker {
	cfg.fill()
	t := &Tracker{
		arena:    a,
		counters: smr.NewCounters(cfg.MaxThreads),
		cfg:      cfg,
		resv:     make([]reservation, cfg.MaxThreads),
		threads:  make([]threadState, cfg.MaxThreads),
	}
	for i := range t.resv {
		t.resv[i].epoch.Store(inactive)
	}
	return t
}

// Name implements smr.Tracker.
func (t *Tracker) Name() string { return "epoch" }

// Enter implements smr.Tracker: publish the current epoch as reservation.
func (t *Tracker) Enter(tid int) {
	t.resv[tid].epoch.Store(t.epoch.Load())
}

// Leave implements smr.Tracker: clear the reservation.
func (t *Tracker) Leave(tid int) {
	t.resv[tid].epoch.Store(inactive)
}

// Alloc implements smr.Tracker.
func (t *Tracker) Alloc(tid int) ptr.Index {
	t.counters.Alloc(tid)
	return t.arena.Alloc(tid)
}

// Retire implements smr.Tracker: tag with the current epoch, park on the
// limbo list, advance the epoch and scan periodically.
func (t *Tracker) Retire(tid int, idx ptr.Index) {
	ts := &t.threads[tid]
	n := t.arena.Node(idx)
	n.BatchLink.Store(t.epoch.Load()) // retire epoch
	n.Next.Store(ts.limboHead)
	ts.limboHead = ptr.Pack(idx)
	ts.limboCount++
	t.counters.Retire(tid)

	ts.retires++
	if ts.retires%t.cfg.EpochFreq == 0 {
		t.epoch.Add(1)
	}
	if ts.nextScan < t.cfg.ScanThreshold {
		ts.nextScan = t.cfg.ScanThreshold
	}
	if ts.limboCount >= ts.nextScan {
		t.scan(tid)
	}
}

// scan frees every limbo node whose retire epoch precedes all live
// reservations.
func (t *Tracker) scan(tid int) {
	t.counters.Scan(tid)
	minRes := uint64(inactive)
	for i := range t.resv {
		if e := t.resv[i].epoch.Load(); e < minRes {
			minRes = e
		}
	}
	ts := &t.threads[tid]
	var keepHead ptr.Word
	keepCount := 0
	var freed arena.Chain
	for w := ts.limboHead; !ptr.IsNil(w); {
		n := t.arena.Deref(w)
		next := n.Next.Load()
		if n.BatchLink.Load() < minRes {
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

// Flush implements smr.Flusher: advance the epoch and scan the limbo
// list. With no concurrent reservations this frees everything retired.
func (t *Tracker) Flush(tid int) {
	t.epoch.Add(1)
	t.scan(tid)
}

// Protect implements smr.Tracker with a plain load: epochs protect whole
// operations, not individual pointers.
func (t *Tracker) Protect(_, _ int, addr *atomic.Uint64) ptr.Word {
	return addr.Load()
}

// PlainLoad implements smr.PlainLoader: Protect above is a bare load.
func (t *Tracker) PlainLoad() bool { return true }

// Stats implements smr.Tracker.
func (t *Tracker) Stats() smr.Stats { return t.counters.Sum() }

// Properties implements smr.Tracker (Table 1 row "EBR").
func (t *Tracker) Properties() smr.Properties {
	return smr.Properties{
		Scheme:      "EBR",
		BasedOn:     "RCU",
		Performance: "Fast",
		Robust:      "No",
		Transparent: "No (retire)",
		Reclamation: "O(n)",
		API:         "Very simple",
	}
}
