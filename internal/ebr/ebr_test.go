package ebr

import (
	"reflect"
	"sync"
	"testing"

	"hyaline/internal/arena"
	"hyaline/internal/smr"
	"hyaline/internal/smrtest"
)

func factory(a *arena.Arena, maxThreads int) smr.Tracker {
	return New(a, Config{MaxThreads: maxThreads})
}

func TestConformance(t *testing.T) {
	smrtest.RunAll(t, factory, smrtest.Options{})
}

func TestConformanceExtra(t *testing.T) {
	smrtest.RunExtra(t, factory, smrtest.Options{})
}

func TestEpochAdvances(t *testing.T) {
	a := arena.New(1 << 12)
	tr := New(a, Config{MaxThreads: 1, EpochFreq: 10, ScanThreshold: 1 << 30})
	before := tr.epoch.Load()
	for i := 0; i < 100; i++ {
		tr.Enter(0)
		idx := tr.Alloc(0)
		tr.Retire(0, idx)
		tr.Leave(0)
	}
	if after := tr.epoch.Load(); after != before+10 {
		t.Fatalf("epoch advanced by %d, want 10", after-before)
	}
}

func TestStalledThreadBlocksReclamation(t *testing.T) {
	// The paper's core criticism of EBR (Figure 10a): one stalled thread
	// pins the epoch and unreclaimed nodes grow without bound.
	a := arena.New(1 << 16)
	tr := New(a, Config{MaxThreads: 2, EpochFreq: 4, ScanThreshold: 16})

	tr.Enter(0) // thread 0 stalls inside an operation

	for i := 0; i < 10_000; i++ {
		tr.Enter(1)
		idx := tr.Alloc(1)
		tr.Retire(1, idx)
		tr.Leave(1)
	}
	tr.Flush(1)
	if un := tr.Stats().Unreclaimed(); un < 9_000 {
		t.Fatalf("stalled thread should pin nearly all 10000 retirees, only %d unreclaimed", un)
	}

	tr.Leave(0) // stalled thread finally leaves
	tr.Flush(1)
	if un := tr.Stats().Unreclaimed(); un > 64 {
		t.Fatalf("after stall clears, %d still unreclaimed", un)
	}
}

func TestReservationSafety(t *testing.T) {
	// A node retired while another thread is inside an operation must not
	// be freed until that thread leaves.
	a := arena.New(1 << 12)
	tr := New(a, Config{MaxThreads: 2, EpochFreq: 1, ScanThreshold: 1})

	tr.Enter(0)
	idx := tr.Alloc(0)
	n := a.Node(idx)
	seq := n.Seq.Load()

	tr.Enter(1) // concurrent reader
	tr.Retire(0, idx)
	tr.Leave(0)
	// Hammer retire/scan from thread 0; node idx must survive.
	for i := 0; i < 100; i++ {
		tr.Enter(0)
		x := tr.Alloc(0)
		tr.Retire(0, x)
		tr.Leave(0)
	}
	if n.Seq.Load() != seq {
		t.Fatal("node freed while a reservation from before its retirement was live")
	}
	tr.Leave(1)
	tr.Flush(0)
	if n.Seq.Load() == seq {
		t.Fatal("node never freed after reservations cleared")
	}
}

func TestConcurrentScanSafety(t *testing.T) {
	a := arena.New(1 << 18)
	tr := New(a, Config{MaxThreads: 8, EpochFreq: 8, ScanThreshold: 32})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 20_000; i++ {
				tr.Enter(tid)
				idx := tr.Alloc(tid)
				tr.Retire(tid, idx)
				tr.Leave(tid)
			}
		}(w)
	}
	wg.Wait()
	for tid := 0; tid < 8; tid++ {
		tr.Flush(tid)
	}
	if un := tr.Stats().Unreclaimed(); un != 0 {
		t.Fatalf("%d unreclaimed after full quiescence", un)
	}
}

func TestProperties(t *testing.T) {
	tr := New(arena.New(16), Config{MaxThreads: 1})
	p := tr.Properties()
	if p.Robust != "No" || p.Scheme != "EBR" {
		t.Fatalf("unexpected properties %+v", p)
	}
	if tr.Name() != "epoch" {
		t.Fatalf("name %q", tr.Name())
	}
}

// TestEpochOwnLine checks that the global epoch, which advances every
// EpochFreq retirements per thread, shares no cache line with the
// tracker fields every operation reads. Lines are counted from the
// start of the struct (see smrtest.OwnLine).
func TestEpochOwnLine(t *testing.T) {
	smrtest.OwnLine(t, reflect.TypeFor[Tracker](), "epoch")
}
