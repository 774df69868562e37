package hyaline

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"hyaline/internal/arena"
	"hyaline/internal/ptr"
	"hyaline/internal/smr"
	"hyaline/internal/smrtest"
)

func factory(v Variant) smrtest.Factory {
	return func(a *arena.Arena, maxThreads int) smr.Tracker {
		return New(a, Config{Variant: v, MaxThreads: maxThreads, Slots: 8, MinBatch: 16})
	}
}

func TestConformanceBasic(t *testing.T) {
	smrtest.RunAll(t, factory(Basic), smrtest.Options{})
}

func TestConformanceExtraBasic(t *testing.T) {
	smrtest.RunExtra(t, factory(Basic), smrtest.Options{})
}

func TestConformanceOne(t *testing.T) {
	smrtest.RunAll(t, factory(One), smrtest.Options{})
}

func TestConformanceExtraOne(t *testing.T) {
	smrtest.RunExtra(t, factory(One), smrtest.Options{})
}

func TestConformanceRobust(t *testing.T) {
	smrtest.RunAll(t, factory(Robust), smrtest.Options{})
}

func TestConformanceExtraRobust(t *testing.T) {
	smrtest.RunExtra(t, factory(Robust), smrtest.Options{})
}

func TestConformanceRobustOne(t *testing.T) {
	smrtest.RunAll(t, factory(RobustOne), smrtest.Options{})
}

func TestConformanceExtraRobustOne(t *testing.T) {
	smrtest.RunExtra(t, factory(RobustOne), smrtest.Options{})
}

func TestAdjsFor(t *testing.T) {
	cases := []struct {
		k    int
		want uint64
	}{
		{1, 0}, // 2^64 mod 2^64
		{2, 1 << 63},
		{8, 1 << 61}, // the paper's example: k=8 → Adjs = 2^61
		{128, 1 << 57},
	}
	for _, c := range cases {
		if got := adjsFor(c.k); got != c.want {
			t.Errorf("adjsFor(%d) = %#x, want %#x", c.k, got, c.want)
		}
		// k × Adjs must wrap to exactly zero (§3.2).
		if got := adjsFor(c.k) * uint64(c.k); got != 0 {
			t.Errorf("k×Adjs = %#x for k=%d, want 0", got, c.k)
		}
	}
}

func TestHeadPacking(t *testing.T) {
	w := packHead(3, ptr.Pack(99))
	if headRef(w) != 3 {
		t.Fatalf("headRef = %d", headRef(w))
	}
	if headPtr(w) != ptr.Pack(99) {
		t.Fatalf("headPtr = %#x", headPtr(w))
	}
	// FAA on the packed word increments only HRef, as the paper's dwFAA.
	w += hrefUnit
	if headRef(w) != 4 || headPtr(w) != ptr.Pack(99) {
		t.Fatal("hrefUnit addition disturbed HPtr")
	}
}

// TestSingleThreadReclaimsEverything mirrors Figure 2a's scenario family:
// with one thread entering and leaving around retirements, every batch
// must be freed by the time the thread has left and flushed.
func TestSingleThreadReclaimsEverything(t *testing.T) {
	for _, v := range []Variant{Basic, One, Robust, RobustOne} {
		t.Run(v.String(), func(t *testing.T) {
			a := arena.New(1 << 16)
			tr := New(a, Config{Variant: v, MaxThreads: 2, Slots: 4, MinBatch: 8})
			for i := 0; i < 10_000; i++ {
				tr.Enter(0)
				idx := tr.Alloc(0)
				tr.Retire(0, idx)
				tr.Leave(0)
			}
			tr.Flush(0)
			st := tr.Stats()
			if st.Unreclaimed() != 0 {
				t.Fatalf("%d unreclaimed after quiescent flush (stats %+v)", st.Unreclaimed(), st)
			}
			if a.Live() != 0 {
				t.Fatalf("arena reports %d live nodes", a.Live())
			}
		})
	}
}

// TestRetireWhileAnotherThreadActive pins the core safety property: a
// batch retired while a second thread is inside an operation must not be
// freed until that thread leaves.
func TestRetireWhileAnotherThreadActive(t *testing.T) {
	for _, v := range []Variant{Basic, Robust} {
		t.Run(v.String(), func(t *testing.T) {
			a := arena.New(1 << 16)
			// Slots:1 so both threads share the single retirement list.
			tr := New(a, Config{Variant: v, MaxThreads: 2, Slots: 1, MinBatch: 2})

			tr.Enter(1) // thread 1 parks inside an operation

			tr.Enter(0)
			// Thread 1 must be able to "reach" the nodes: simulate a
			// dereference so Hyaline-S eras cover them.
			var probe atomic.Uint64
			nodes := make([]ptr.Index, 8)
			for i := range nodes {
				nodes[i] = tr.Alloc(0)
				probe.Store(ptr.Pack(nodes[i]))
				tr.Protect(1, 0, &probe)
			}
			seqs := make([]uint64, len(nodes))
			for i, idx := range nodes {
				seqs[i] = a.Node(idx).Seq.Load()
			}
			for _, idx := range nodes {
				tr.Retire(0, idx) // batch size 3 > k=1 flushes quickly
			}
			tr.Leave(0)
			tr.Flush(0)

			for i, idx := range nodes {
				if a.Node(idx).Seq.Load() != seqs[i] {
					t.Fatalf("node %d freed while thread 1 was still active", i)
				}
			}

			tr.Leave(1) // thread 1 leaves: everything must now drain
			tr.Flush(0)
			st := tr.Stats()
			if st.Unreclaimed() != 0 {
				t.Fatalf("%d unreclaimed after both threads left", st.Unreclaimed())
			}
		})
	}
}

// TestFigure2aScenario walks the exact three-thread interleaving of the
// paper's Figure 2a on a single-slot Hyaline and checks each step's
// reclamation outcome.
func TestFigure2aScenario(t *testing.T) {
	a := arena.New(64)
	// MinBatch 1 with k=1: every retire publishes a batch of 2 nodes
	// (1 payload + REFS)... batch needs > k nodes, i.e. ≥ 2.
	tr := New(a, Config{Variant: Basic, MaxThreads: 3, Slots: 1, MinBatch: 2})

	alloc2 := func(tid int) (ptr.Index, ptr.Index) {
		return tr.Alloc(tid), tr.Alloc(tid)
	}

	// (a) Thread 1 enters.
	tr.Enter(0)
	// (b) Thread 1 retires batch N1 (two nodes so the batch publishes).
	n1a, n1b := alloc2(0)
	tr.Retire(0, n1a)
	tr.Retire(0, n1b)
	// (c) Thread 2 enters.
	tr.Enter(1)
	// (d) Thread 2 retires batch N2.
	n2a, n2b := alloc2(1)
	tr.Retire(1, n2a)
	tr.Retire(1, n2b)
	// (e) Thread 3 enters.
	tr.Enter(2)

	if got := tr.Stats().Unreclaimed(); got != 4 {
		t.Fatalf("before any leave, unreclaimed = %d, want 4", got)
	}

	// (f) Thread 1 leaves: dereferences both batches, neither freeable
	// (N2 held by threads 2,3; N1 held by thread 2).
	tr.Leave(0)
	if got := tr.Stats().Unreclaimed(); got != 4 {
		t.Fatalf("after T1 leave, unreclaimed = %d, want 4", got)
	}

	// (h) Thread 2 leaves and deallocates N1.
	tr.Leave(1)
	if got := tr.Stats().Unreclaimed(); got != 2 {
		t.Fatalf("after T2 leave, unreclaimed = %d, want 2 (N1 freed)", got)
	}

	// (i) Thread 3 leaves and deallocates N2.
	tr.Leave(2)
	if got := tr.Stats().Unreclaimed(); got != 0 {
		t.Fatalf("after T3 leave, unreclaimed = %d, want 0", got)
	}
}

// TestTrimReclaims verifies §3.3: trim dereferences previously retired
// nodes without leaving, allowing timely reclamation mid-operation-burst.
func TestTrimReclaims(t *testing.T) {
	for _, v := range []Variant{Basic, One, Robust, RobustOne} {
		t.Run(v.String(), func(t *testing.T) {
			a := arena.New(1 << 16)
			tr := New(a, Config{Variant: v, MaxThreads: 2, Slots: 2, MinBatch: 4})

			tr.Enter(0)
			for i := 0; i < 1000; i++ {
				idx := tr.Alloc(0)
				tr.Retire(0, idx)
				if i%10 == 9 {
					tr.Trim(0)
				}
			}
			// Without trim, everything retired since enter would still be
			// pinned by this thread. With trim, most batches must be gone.
			un := tr.Stats().Unreclaimed()
			if un > 200 {
				t.Fatalf("trim failed to reclaim: %d unreclaimed", un)
			}
			tr.Leave(0)
			tr.Flush(0)
			if un := tr.Stats().Unreclaimed(); un != 0 {
				t.Fatalf("%d unreclaimed after leave", un)
			}
		})
	}
}

// TestNoTrimPinsNodes is the negative control for TestTrimReclaims: a
// thread that stays inside one operation pins everything retired after
// its enter (basic Hyaline is deliberately not robust).
func TestNoTrimPinsNodes(t *testing.T) {
	a := arena.New(1 << 16)
	tr := New(a, Config{Variant: Basic, MaxThreads: 2, Slots: 1, MinBatch: 4})
	tr.Enter(1) // pin
	tr.Enter(0)
	for i := 0; i < 1000; i++ {
		idx := tr.Alloc(0)
		tr.Retire(0, idx)
	}
	tr.Leave(0)
	if un := tr.Stats().Unreclaimed(); un < 900 {
		t.Fatalf("expected nearly all 1000 pinned by the parked thread, got %d", un)
	}
	tr.Leave(1)
}

// TestConcurrentChurnDrainsCompletely is the strongest accounting test:
// heavy multi-threaded churn, then full quiescence; every single node
// must come back (the wrap-around NRef arithmetic must balance exactly,
// and the arena's double-free panic validates no count went negative).
func TestConcurrentChurnDrainsCompletely(t *testing.T) {
	for _, v := range []Variant{Basic, One, Robust, RobustOne} {
		t.Run(v.String(), func(t *testing.T) {
			const (
				workers = 8
				ops     = 30_000
			)
			a := arena.New(1 << 20)
			tr := New(a, Config{Variant: v, MaxThreads: workers, Slots: 4, MinBatch: 8})
			var register atomic.Uint64
			tr.Enter(0)
			register.Store(ptr.Pack(tr.Alloc(0)))
			tr.Leave(0)

			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						tr.Enter(tid)
						idx := tr.Alloc(tid)
						for {
							old := tr.Protect(tid, 0, &register)
							if register.CompareAndSwap(old, ptr.Pack(idx)) {
								tr.Retire(tid, ptr.Idx(old))
								break
							}
						}
						tr.Leave(tid)
					}
				}(w)
			}
			wg.Wait()
			for pass := 0; pass < 2; pass++ {
				for tid := 0; tid < workers; tid++ {
					tr.Flush(tid)
				}
			}
			st := tr.Stats()
			if st.Unreclaimed() != 0 {
				t.Fatalf("%d unreclaimed after quiescence (stats %+v)", st.Unreclaimed(), st)
			}
			if live := a.Live(); live != 1 { // the register occupant
				t.Fatalf("arena live = %d, want 1", live)
			}
		})
	}
}

// TestBatchSizeRespectsSlotCount: a batch must hold strictly more nodes
// than slots (one per slot list + REFS), so with MinBatch 1 the tracker
// must still accumulate k+1 nodes before publishing.
func TestBatchSizeRespectsSlotCount(t *testing.T) {
	a := arena.New(1 << 12)
	tr := New(a, Config{Variant: Basic, MaxThreads: 1, Slots: 8, MinBatch: 1})
	tr.Enter(0)
	for i := 0; i < 8; i++ { // k = 8 retires: not yet publishable
		tr.Retire(0, tr.Alloc(0))
	}
	b := &tr.threads[0].batches[0]
	if b.count != 8 {
		t.Fatalf("batch flushed prematurely at %d nodes (k=8)", b.count)
	}
	tr.Retire(0, tr.Alloc(0)) // 9th = k+1: now it must publish
	if b.count != 0 {
		t.Fatalf("batch not flushed at k+1 nodes, count=%d", b.count)
	}
	tr.Leave(0)
}

// TestThreadStateFillsCacheLines: neighbouring tids must not share a
// cache line, and threadState carries no padding to spare.
func TestThreadStateFillsCacheLines(t *testing.T) {
	if sz := unsafe.Sizeof(threadState{}); sz%64 != 0 {
		t.Fatalf("threadState is %d bytes, not a multiple of a cache line", sz)
	}
}

func TestVariantNamesAndProperties(t *testing.T) {
	a := arena.New(64)
	want := map[Variant]string{
		Basic: "hyaline", One: "hyaline-1", Robust: "hyaline-s", RobustOne: "hyaline-1s",
	}
	for v, name := range want {
		tr := New(a, Config{Variant: v, MaxThreads: 2})
		if tr.Name() != name {
			t.Errorf("variant %d name %q, want %q", v, tr.Name(), name)
		}
		if p := tr.Properties(); p.Scheme == "" || p.Reclamation == "" {
			t.Errorf("empty properties for %s", name)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}
	cfg.fill()
	if cfg.Variant != Basic || cfg.MinBatch != 64 || cfg.Slots&(cfg.Slots-1) != 0 {
		t.Fatalf("bad defaults: %+v", cfg)
	}
	cfg = Config{Variant: One, MaxThreads: 7}
	cfg.fill()
	if cfg.Slots != 7 {
		t.Fatalf("One variant must force k = MaxThreads, got %d", cfg.Slots)
	}
	cfg = Config{Variant: Basic, Slots: 5}
	cfg.fill()
	if cfg.Slots != 8 {
		t.Fatalf("slots must round up to a power of two, got %d", cfg.Slots)
	}

	// Default k: Hyaline-S gets a slot per tid up to the paper's 128;
	// Basic stays at the core count whatever MaxThreads is.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, c := range []struct {
		cfg  Config
		want int
	}{
		{Config{Variant: Robust, MaxThreads: 1}, 2},
		{Config{Variant: Robust, MaxThreads: 3}, 4},
		{Config{Variant: Robust, MaxThreads: 200}, 128},
		{Config{Variant: Robust, MaxThreads: 200, Slots: 2}, 2},
		{Config{Variant: Robust, MaxThreads: 3, Slots: 256}, 256},
		{Config{Variant: Basic, MaxThreads: 200}, 2},
		{Config{Variant: One, MaxThreads: 200}, 200},
		{Config{Variant: RobustOne, MaxThreads: 3}, 3},
	} {
		in := c.cfg
		c.cfg.fill()
		if c.cfg.Slots != c.want {
			t.Errorf("%+v: default Slots = %d, want %d", in, c.cfg.Slots, c.want)
		}
	}
}

// TestAllocEraOwnLine checks that the era clock, which advances every
// Freq allocations per thread, shares no cache line with the tracker
// fields every operation reads. Lines are counted from the start of the
// struct (see smrtest.OwnLine).
func TestAllocEraOwnLine(t *testing.T) {
	smrtest.OwnLine(t, reflect.TypeFor[Tracker](), "allocEra")
}
