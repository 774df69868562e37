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
	"sort"
	"sync/atomic"

	"hyaline/internal/arena"
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

type threadState struct {
	limboHead ptr.Word
	// nextScan is the adaptive scan trigger: when pinned garbage keeps
	// a long limbo list alive, rescanning every ScanThreshold retires
	// would be quadratic, so the trigger moves with the surviving count.
	nextScan   int
	limboCount int
	scratch    []uint64 // reused hazard snapshot buffer
	_          [4]uint64
}

// Tracker is the hazard-pointer scheme.
type Tracker struct {
	arena    *arena.Arena
	counters *smr.Counters
	cfg      Config

	hazards []hazardRow
	threads []threadState
}

var (
	_ smr.Tracker = (*Tracker)(nil)
	_ smr.Flusher = (*Tracker)(nil)
)

// New creates a hazard-pointer tracker over a.
func New(a *arena.Arena, cfg Config) *Tracker {
	cfg.fill()
	t := &Tracker{
		arena:    a,
		counters: smr.NewCounters(cfg.MaxThreads),
		cfg:      cfg,
		hazards:  make([]hazardRow, cfg.MaxThreads),
		threads:  make([]threadState, cfg.MaxThreads),
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

// Alloc implements smr.Tracker.
func (t *Tracker) Alloc(tid int) ptr.Index {
	t.counters.Alloc(tid)
	return t.arena.Alloc(tid)
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
	t.counters.Retire(tid)
	ts := &t.threads[tid]
	n := t.arena.Node(idx)
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

// scan frees every limbo node not present in any thread's hazard slots.
func (t *Tracker) scan(tid int) {
	t.counters.Scan(tid)
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
	sort.Slice(hz, func(i, j int) bool { return hz[i] < hz[j] })

	var keepHead ptr.Word
	keepCount := 0
	var freed arena.Chain
	for w := ts.limboHead; !ptr.IsNil(w); {
		n := t.arena.Deref(w)
		next := n.Next.Load()
		i := sort.Search(len(hz), func(i int) bool { return hz[i] >= w })
		if i < len(hz) && hz[i] == w {
			n.Next.Store(keepHead)
			keepHead = w
			keepCount++
		} else {
			t.arena.Release(&freed, ptr.Idx(w))
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

// Flush implements smr.Flusher.
func (t *Tracker) Flush(tid int) { t.scan(tid) }

// Stats implements smr.Tracker.
func (t *Tracker) Stats() smr.Stats { return t.counters.Sum() }

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
