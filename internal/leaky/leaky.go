// Package leaky implements the paper's "Leaky" baseline: no reclamation
// at all. Retired nodes are never freed, so every run leaks exactly its
// retire count. Leaky is the throughput yardstick in Figures 8, 11, 13
// and 15; the paper notes a scheme can even beat it because recycling hot
// nodes is cheaper than faulting fresh memory.
package leaky

import (
	"sync/atomic"

	"hyaline/internal/arena"
	"hyaline/internal/ptr"
	"hyaline/internal/smr"
)

// Tracker is the no-op reclamation scheme.
type Tracker struct {
	smr.Base
}

var _ smr.Tracker = (*Tracker)(nil)

// New creates a leaky tracker over a. The arena must be sized for the
// whole run, since nothing is ever recycled.
func New(a *arena.Arena, maxThreads int) *Tracker {
	return &Tracker{Base: smr.NewBase(a, maxThreads)}
}

// Name implements smr.Tracker.
func (t *Tracker) Name() string { return "leaky" }

// Enter implements smr.Tracker. It is a no-op.
func (t *Tracker) Enter(int) {}

// Leave implements smr.Tracker. It is a no-op.
func (t *Tracker) Leave(int) {}

// Retire implements smr.Tracker: the node is abandoned, never freed.
func (t *Tracker) Retire(tid int, _ ptr.Index) {
	t.Counters.Retire(tid)
}

// Flush implements smr.Flusher. Leaky has nothing to flush.
func (t *Tracker) Flush(int) {}

// Protect implements smr.Tracker with a plain atomic load.
func (t *Tracker) Protect(_, _ int, addr *atomic.Uint64) ptr.Word {
	return addr.Load()
}

// PlainLoad implements smr.PlainLoader: Protect above is a bare load.
func (t *Tracker) PlainLoad() bool { return true }

// Properties implements smr.Tracker.
func (t *Tracker) Properties() smr.Properties {
	return smr.Properties{
		Scheme:      "Leaky",
		BasedOn:     "-",
		Performance: "Baseline",
		Robust:      "No",
		Transparent: "Yes",
		Reclamation: "none",
		API:         "None",
	}
}
