package hyaline

import (
	"sync"
	"sync/atomic"
	"testing"

	"hyaline/internal/arena"
	"hyaline/internal/ptr"
)

// churn performs ops alloc+retire cycles on behalf of tid, with a
// simulated dereference so that era-based schemes cover the nodes.
func churn(tr *Tracker, tid, ops int) {
	var probe atomic.Uint64
	for i := 0; i < ops; i++ {
		tr.Enter(tid)
		idx := tr.Alloc(tid)
		probe.Store(ptr.Pack(idx))
		tr.Protect(tid, 0, &probe)
		tr.Retire(tid, idx)
		tr.Leave(tid)
	}
}

// TestRobustStalledThreadBounded: the Hyaline-S headline property (§4.2).
// A thread stalls inside an operation in its own slot; an active thread
// keeps churning in a different slot. Because the stalled slot's access
// era goes stale, new batches skip it and garbage stays bounded — unlike
// basic Hyaline, where the same scenario pins everything (Fig. 10a).
func TestRobustStalledThreadBounded(t *testing.T) {
	for _, v := range []Variant{Robust, RobustOne} {
		t.Run(v.String(), func(t *testing.T) {
			a := arena.New(1 << 20)
			tr := New(a, Config{
				Variant: v, MaxThreads: 2, Slots: 2, MinBatch: 8, Freq: 4,
			})

			tr.Enter(1) // tid 1 stalls in slot 1, never dereferencing

			const ops = 50_000
			churn(tr, 0, ops)
			tr.Flush(0)

			un := tr.Stats().Unreclaimed()
			// Bounded: a small multiple of the batch size, not ~ops.
			if un > 1024 {
				t.Fatalf("stalled thread pinned %d nodes; Hyaline-%s must bound garbage", un, v)
			}
			tr.Leave(1)
		})
	}
}

// TestBasicStalledThreadUnbounded is the negative control: the same
// scenario under basic Hyaline grows without bound, matching the paper's
// Figure 10a for non-robust schemes.
func TestBasicStalledThreadUnbounded(t *testing.T) {
	a := arena.New(1 << 20)
	tr := New(a, Config{Variant: Basic, MaxThreads: 2, Slots: 1, MinBatch: 8})
	tr.Enter(1)
	const ops = 20_000
	churn(tr, 0, ops)
	tr.Flush(0)
	if un := tr.Stats().Unreclaimed(); un < ops*9/10 {
		t.Fatalf("expected ~%d pinned under basic Hyaline, got %d", ops, un)
	}
	tr.Leave(1)
}

// TestAckAvoidance: when active threads share a slot with a stalled
// thread, the slot's Ack counter accumulates (+HRef per inserted batch,
// -1 per traversed batch; the stalled thread never traverses). Once it
// crosses the threshold, enter must rotate active threads away (Fig. 5
// lines 26-28), after which the slot goes era-stale and garbage drains.
func TestAckAvoidance(t *testing.T) {
	a := arena.New(1 << 20)
	tr := New(a, Config{
		Variant: Robust, MaxThreads: 3, Slots: 2,
		MinBatch: 4, Freq: 2, AckThreshold: 64,
	})

	// tid 2 maps to slot 0 (2 & 1), same as tid 0: stall it there.
	tr.Enter(2)
	if got := tr.threads[2].slot; got != 0 {
		t.Fatalf("stalled thread landed in slot %d, want 0", got)
	}

	const ops = 30_000
	churn(tr, 0, ops) // tid 0 starts in slot 0, must eventually flee
	if got := tr.threads[0].slot; got != 1 {
		t.Fatalf("active thread still in contaminated slot %d, want rotation to 1", got)
	}
	if ack := tr.slot(0).ack.Load(); ack < 64 {
		t.Fatalf("slot 0 ack = %d, expected it to cross the threshold", ack)
	}

	tr.Flush(0)
	if un := tr.Stats().Unreclaimed(); un > 2048 {
		t.Fatalf("%d nodes unreclaimed; ack avoidance failed to bound garbage", un)
	}
	tr.Leave(2)
}

// TestRotationPrefersUnoccupiedSlot: a thread fleeing a saturated slot
// must not pile onto the next running thread's slot while an unoccupied
// one is under the threshold too.
func TestRotationPrefersUnoccupiedSlot(t *testing.T) {
	tr := New(arena.New(1<<20), Config{
		Variant: Robust, MaxThreads: 5, Slots: 4,
		MinBatch: 8, Freq: 2, AckThreshold: 64,
	})
	tr.Enter(4) // stalls in slot 0 (4 & 3), beside tid 0
	tr.Enter(1) // a running thread, inside an operation in slot 1
	churn(tr, 0, 30_000)
	if got := tr.threads[0].slot; got != 2 {
		t.Fatalf("tid 0 fled to slot %d, want the unoccupied slot 2", got)
	}
	tr.Leave(1)
	tr.Leave(4)
}

// churnOld retires the long-lived nodes in old on behalf of tid, one per
// operation, each beside fresh newly allocated and dereferenced nodes:
// the shape in which a batch pinned by its minimum birth era drags young
// nodes into a stalled slot's list.
func churnOld(tr *Tracker, tid int, old []ptr.Index, fresh int) {
	var probe atomic.Uint64
	for _, o := range old {
		tr.Enter(tid)
		tr.Retire(tid, o)
		for i := 0; i < fresh; i++ {
			idx := tr.Alloc(tid)
			probe.Store(ptr.Pack(idx))
			tr.Protect(tid, 0, &probe)
			tr.Retire(tid, idx)
		}
		tr.Leave(tid)
	}
}

// park makes tid enter, dereference node idx once and stay inside its
// operation: its slot's access era freezes at the current era.
func park(tr *Tracker, tid int, idx ptr.Index) {
	var probe atomic.Uint64
	probe.Store(ptr.Pack(idx))
	tr.Enter(tid)
	tr.Protect(tid, 0, &probe)
}

// TestStalledPlateauIsEraBound: under a stalled thread the plateau is the
// era bound — the nodes born before the thread's access era went stale —
// not a multiple of it. The N old nodes are retired one at a time, each
// among 15 young ones; with one batch per thread every such batch carries
// the old node's birth era and is pinned whole (N×16 nodes).
func TestStalledPlateauIsEraBound(t *testing.T) {
	const (
		n     = 2000
		batch = 16
		slack = 4 * batch // first batches, built before any boundary is known
	)
	alloc := func(tr *Tracker) []ptr.Index {
		old := make([]ptr.Index, n)
		for i := range old {
			old[i] = tr.Alloc(0)
		}
		return old
	}

	for _, v := range []Variant{Robust, RobustOne} {
		t.Run(v.String(), func(t *testing.T) {
			const threads = 2
			tr := New(arena.New(1<<20), Config{
				Variant: v, MaxThreads: threads, MinBatch: batch, Freq: 4,
			})
			old := alloc(tr)
			park(tr, 1, old[0]) // tid 1 owns slot 1
			churnOld(tr, 0, old, batch-1)

			if un, max := tr.Stats().Unreclaimed(), int64(n+2*threads*batch+slack); un > max {
				t.Fatalf("%d unreclaimed with %d old nodes; the era bound allows %d", un, n, max)
			}
			tr.Leave(1)
		})
	}

	// More tids than slots: the parked tid shares the churner's slot, which
	// stays era-fresh until Ack crosses the threshold and the churner
	// flees. That costs AckThreshold batches once, on top of the era bound.
	t.Run("shared-slot", func(t *testing.T) {
		const ackThreshold = 64
		tr := New(arena.New(1<<20), Config{
			Variant: Robust, MaxThreads: 3, Slots: 2,
			MinBatch: batch, Freq: 4, AckThreshold: ackThreshold,
		})
		old := alloc(tr)
		park(tr, 2, old[0]) // tid 2 maps to slot 0, like tid 0
		churnOld(tr, 0, old, batch-1)

		if got := tr.threads[0].slot; got != 1 {
			t.Fatalf("churner still in the parked thread's slot %d", got)
		}
		if un, max := tr.Stats().Unreclaimed(), int64(n+ackThreshold*batch+slack); un > max {
			t.Fatalf("%d unreclaimed with %d old nodes; era bound + AckThreshold×batch allows %d", un, n, max)
		}
		tr.Leave(2)
	})
}

// TestFlushDrainsBothBatches: with a parked thread fixing the boundary,
// every churner ends with both of its batches partly filled; once the
// parked thread leaves, Flush must publish both, every node is freed
// exactly once (the arena panics on a double free) and nothing is left.
func TestFlushDrainsBothBatches(t *testing.T) {
	const (
		workers = 4
		parked  = workers
		perTid  = 200
		batch   = 16
	)
	a := arena.New(1 << 20)
	tr := New(a, Config{
		Variant: Robust, MaxThreads: workers + 1, MinBatch: batch, Freq: 4,
	})
	old := make([][]ptr.Index, workers)
	for tid := range old {
		old[tid] = make([]ptr.Index, perTid+batch)
		for i := range old[tid] {
			old[tid][i] = tr.Alloc(tid)
		}
	}
	park(tr, parked, old[0][0])

	var wg sync.WaitGroup
	for tid := 0; tid < workers; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			churnOld(tr, tid, old[tid][:perTid], 3)
			// Top up whichever batch the last publish left empty.
			ts := &tr.threads[tid]
			spare := old[tid][perTid:]
			tr.Enter(tid)
			for ts.batches[0].count == 0 {
				tr.Retire(tid, spare[0])
				spare = spare[1:]
			}
			for ts.batches[1].count == 0 {
				tr.Retire(tid, tr.Alloc(tid))
			}
			tr.Leave(tid)
			for _, idx := range spare {
				tr.Dealloc(tid, idx) // never published
			}
		}(tid)
	}
	wg.Wait()
	for tid := 0; tid < workers; tid++ {
		b := &tr.threads[tid].batches
		if b[0].count == 0 || b[1].count == 0 {
			t.Fatalf("tid %d: batch fill %d/%d, want both partly filled", tid, b[0].count, b[1].count)
		}
	}

	tr.Leave(parked)
	for pass := 0; pass < 2; pass++ {
		for tid := 0; tid <= workers; tid++ {
			tr.Flush(tid)
		}
	}
	if st := tr.Stats(); st.Unreclaimed() != 0 {
		t.Fatalf("after flushing both batches: %+v", st)
	}
	if live := a.Live(); live != 0 {
		t.Fatalf("arena live = %d after full drain", live)
	}
}

// TestAdaptiveResize: §4.3 — when every slot is saturated by stalled
// threads, enter doubles the slot count through the directory. The
// tracker must keep reclaiming with mixed-Adjs batches in flight.
func TestAdaptiveResize(t *testing.T) {
	a := arena.New(1 << 20)
	tr := New(a, Config{
		Variant: Robust, MaxThreads: 4, Slots: 1,
		MinBatch: 4, Freq: 2, AckThreshold: 32, Resize: true,
	})
	if tr.Slots() != 1 {
		t.Fatalf("initial k = %d, want 1", tr.Slots())
	}

	tr.Enter(1) // stall in the only slot

	const ops = 30_000
	churn(tr, 0, ops)

	if k := tr.Slots(); k < 2 {
		t.Fatalf("slot count never grew past %d despite saturated slots", k)
	}
	tr.Flush(0)
	if un := tr.Stats().Unreclaimed(); un > 2048 {
		t.Fatalf("%d nodes unreclaimed after resize", un)
	}

	// The stalled thread resumes: the system must drain completely.
	tr.Leave(1)
	churn(tr, 0, 1000)
	for pass := 0; pass < 2; pass++ {
		for tid := 0; tid < 4; tid++ {
			tr.Flush(tid)
		}
	}
	if un := tr.Stats().Unreclaimed(); un != 0 {
		t.Fatalf("%d unreclaimed after stall cleared", un)
	}
	if live := a.Live(); live != 0 {
		t.Fatalf("arena live = %d after full drain", live)
	}
}

// TestResizeDirectoryIndexing exercises the Fig. 6 slot-directory math
// through several doublings.
func TestResizeDirectoryIndexing(t *testing.T) {
	a := arena.New(1 << 12)
	tr := New(a, Config{
		Variant: Robust, MaxThreads: 2, Slots: 2,
		MinBatch: 4, Resize: true,
	})
	k := 2
	for i := 0; i < 4; i++ {
		k = tr.grow(k)
	}
	if k != 32 {
		t.Fatalf("after 4 doublings k = %d, want 32", k)
	}
	// Every slot index must resolve to a distinct slotState.
	seen := map[*slotState]int{}
	for i := 0; i < 32; i++ {
		st := tr.slot(i)
		if prev, dup := seen[st]; dup {
			t.Fatalf("slots %d and %d alias the same state", prev, i)
		}
		seen[st] = i
		st.head.Add(hrefUnit) // touch to prove the backing array exists
	}
}

// TestEraClockAdvances checks Fig. 5 init_node: the global era advances
// every Freq allocations and newborn nodes carry the current era.
func TestEraClockAdvances(t *testing.T) {
	a := arena.New(1 << 12)
	tr := New(a, Config{Variant: Robust, MaxThreads: 1, Slots: 1, Freq: 10})
	start := tr.allocEra.Load()
	var last ptr.Index
	for i := 0; i < 100; i++ {
		last = tr.Alloc(0)
	}
	if got := tr.allocEra.Load(); got != start+10 {
		t.Fatalf("era advanced by %d after 100 allocs at Freq=10, want 10", got-start)
	}
	if birth := a.Node(last).Refs.Load(); birth != tr.allocEra.Load() {
		t.Fatalf("birth era %d, want %d", birth, tr.allocEra.Load())
	}
}

// TestTouchIsMonotonic: concurrent touch calls must never lower a slot's
// access era (CAS-max semantics for shared slots).
func TestTouchIsMonotonic(t *testing.T) {
	a := arena.New(64)
	tr := New(a, Config{Variant: Robust, MaxThreads: 2, Slots: 1})
	st := tr.slot(0)
	if got := tr.touch(st, 5); got != 5 {
		t.Fatalf("touch(5) = %d", got)
	}
	if got := tr.touch(st, 3); got != 5 {
		t.Fatalf("touch(3) after 5 = %d, must keep the max", got)
	}
	if got := st.access.Load(); got != 5 {
		t.Fatalf("access = %d", got)
	}
}
