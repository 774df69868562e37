// Package hp implements Michael's hazard pointers [26], the classic
// pointer-based baseline of the paper's evaluation.
//
// Each thread owns K hazard slots. Protect publishes the target node in a
// slot and validates the source link is unchanged, looping until stable.
// Retired nodes park on a per-thread limbo list; once the list crosses a
// threshold, the thread snapshots every hazard slot of every thread and
// frees the nodes no one protects.
//
// HP is robust (a stalled thread pins at most K nodes) but pays a memory
// fence per dereference and an O(mn) scan per batch of retirements, which
// is why it trails every other scheme in Figures 8 and 11.
package hp

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
	// Hazards is K, the per-thread hazard slot count. Default 8 (enough
	// for the Natarajan & Mittal tree's seek window).
	Hazards int
	// ScanThreshold triggers a scan once a thread's limbo list holds this
	// many nodes. Default 128.
	ScanThreshold int
}

func (c *Config) fill() {
	if c.Hazards <= 0 {
		c.Hazards = 8
	}
	if c.ScanThreshold <= 0 {
		c.ScanThreshold = 128
	}
}

type hazardRow struct {
	slots []atomic.Uint64 // clean node words; 0 = empty
	_     [8]uint64
}

// threadState is a tid's reused hazard snapshot buffer.
type threadState struct {
	scratch []uint64
	_       [5]uint64
}

// Tracker is the hazard-pointer scheme.
type Tracker struct {
	smr.Base
	cfg Config

	hazards []hazardRow
	limbo   limbo.List
	threads []threadState
}

var (
	_ smr.Tracker = (*Tracker)(nil)
	_ smr.Flusher = (*Tracker)(nil)
)

// New creates a hazard-pointer tracker over a.
func New(a *arena.Arena, cfg Config) *Tracker {
	cfg.fill()
	base := smr.NewBase(a, cfg.MaxThreads)
	t := &Tracker{
		Base:    base,
		cfg:     cfg,
		hazards: make([]hazardRow, cfg.MaxThreads),
		limbo:   limbo.New(base, cfg.MaxThreads, cfg.ScanThreshold),
		threads: make([]threadState, cfg.MaxThreads),
	}
	for i := range t.hazards {
		t.hazards[i].slots = make([]atomic.Uint64, cfg.Hazards)
	}
	return t
}

// Name implements smr.Tracker.
func (t *Tracker) Name() string { return "hp" }

// Enter implements smr.Tracker. HP has no per-operation state to set up.
func (t *Tracker) Enter(int) {}

// Leave implements smr.Tracker: release every hazard slot.
func (t *Tracker) Leave(tid int) {
	row := &t.hazards[tid]
	for i := range row.slots {
		row.slots[i].Store(0)
	}
}

// Protect implements smr.Tracker: publish-and-validate. The loop
// terminates as soon as two consecutive reads of *addr agree while the
// hazard is published, the linearization argument of [26].
func (t *Tracker) Protect(tid, slot int, addr *atomic.Uint64) ptr.Word {
	hz := &t.hazards[tid].slots[slot]
	for {
		w := addr.Load()
		hz.Store(ptr.Clean(w))
		if addr.Load() == w {
			return w
		}
	}
}

// Retire implements smr.Tracker.
func (t *Tracker) Retire(tid int, idx ptr.Index) {
	if t.limbo.Retire(tid, idx) {
		t.scan(tid)
	}
}

// scan frees every limbo node not present in any thread's hazard slots,
// looked up in one sorted snapshot of them.
func (t *Tracker) scan(tid int) {
	ts := &t.threads[tid]
	hz := ts.scratch[:0]
	for i := range t.hazards {
		for j := range t.hazards[i].slots {
			if w := t.hazards[i].slots[j].Load(); w != 0 {
				hz = append(hz, w)
			}
		}
	}
	ts.scratch = hz
	slices.Sort(hz)
	t.limbo.Scan(tid, func(w ptr.Word, _ *arena.Node) bool {
		_, found := slices.BinarySearch(hz, w)
		return found
	})
}

// Flush implements smr.Flusher.
func (t *Tracker) Flush(tid int) { t.scan(tid) }

// Properties implements smr.Tracker (Table 1 row "HP").
func (t *Tracker) Properties() smr.Properties {
	return smr.Properties{
		Scheme:      "HP",
		BasedOn:     "-",
		Performance: "Slow",
		Robust:      "Yes",
		Transparent: "No (retire)",
		Reclamation: "O(mn)",
		API:         "Harder",
	}
}
