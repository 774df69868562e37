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
	"hyaline/internal/limbo"
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

// threadState is a tid's own retire count, which drives the epoch.
type threadState struct {
	retires int
	_       [7]uint64
}

// Tracker is the epoch-based reclamation scheme.
type Tracker struct {
	// epoch is the global epoch. It advances every EpochFreq retirements
	// per thread, so it leads the struct on a cache line of its own: an
	// advance must not invalidate the slice headers below, which every
	// operation reads (TestEpochOwnLine).
	epoch atomic.Uint64
	_     [56]byte

	smr.Base
	cfg Config

	resv    []reservation
	limbo   limbo.List
	threads []threadState
}

var _ smr.Tracker = (*Tracker)(nil)

// New creates an EBR tracker over a.
func New(a *arena.Arena, cfg Config) *Tracker {
	cfg.fill()
	base := smr.NewBase(a, cfg.MaxThreads)
	t := &Tracker{
		Base:    base,
		cfg:     cfg,
		resv:    make([]reservation, cfg.MaxThreads),
		limbo:   limbo.New(base, cfg.MaxThreads, cfg.ScanThreshold),
		threads: make([]threadState, cfg.MaxThreads),
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

// Retire implements smr.Tracker: tag with the current epoch, park on the
// limbo list, advance the epoch and scan periodically.
func (t *Tracker) Retire(tid int, idx ptr.Index) {
	t.Arena.Node(idx).BatchLink.Store(t.epoch.Load()) // retire epoch
	due := t.limbo.Retire(tid, idx)
	ts := &t.threads[tid]
	ts.retires++
	if ts.retires%t.cfg.EpochFreq == 0 {
		t.epoch.Add(1)
	}
	if due {
		t.scan(tid)
	}
}

// scan frees every limbo node whose retire epoch precedes all live
// reservations.
func (t *Tracker) scan(tid int) {
	minRes := uint64(inactive)
	for i := range t.resv {
		if e := t.resv[i].epoch.Load(); e < minRes {
			minRes = e
		}
	}
	t.limbo.Scan(tid, func(_ ptr.Word, n *arena.Node) bool {
		return n.BatchLink.Load() >= minRes
	})
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
