package hp

import (
	"sync/atomic"
	"testing"

	"hyaline/internal/arena"
	"hyaline/internal/ptr"
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

func TestProtectPinsExactNode(t *testing.T) {
	a := arena.New(64)
	tr := New(a, Config{MaxThreads: 2, ScanThreshold: 1})

	var reg atomic.Uint64
	tr.Enter(0)
	idx := tr.Alloc(0)
	reg.Store(ptr.Pack(idx))

	tr.Enter(1)
	w := tr.Protect(1, 0, &reg) // thread 1 protects the node
	if w != ptr.Pack(idx) {
		t.Fatalf("Protect returned %#x", w)
	}
	seq := a.Node(idx).Seq.Load()

	tr.Retire(0, idx) // threshold 1: scan runs immediately
	tr.Leave(0)
	tr.Flush(0)
	if a.Node(idx).Seq.Load() != seq {
		t.Fatal("protected node was freed")
	}

	tr.Leave(1) // hazard released
	tr.Flush(0)
	if a.Node(idx).Seq.Load() == seq {
		t.Fatal("unprotected node was not freed")
	}
}

// TestStalledThreadPinsBoundedNodes: HP's robustness guarantee — a
// stalled thread pins at most its K hazard slots' worth of nodes, so
// unreclaimed garbage stays around the scan threshold (Fig. 10a).
func TestStalledThreadPinsBoundedNodes(t *testing.T) {
	a := arena.New(1 << 18)
	tr := New(a, Config{MaxThreads: 2, Hazards: 4, ScanThreshold: 32})

	var reg atomic.Uint64
	tr.Enter(1)
	first := tr.Alloc(1)
	reg.Store(ptr.Pack(first))
	tr.Protect(1, 0, &reg) // stall while holding one hazard

	const ops = 20_000
	for i := 0; i < ops; i++ {
		tr.Enter(0)
		idx := tr.Alloc(0)
		for {
			old := tr.Protect(0, 0, &reg)
			if reg.CompareAndSwap(old, ptr.Pack(idx)) {
				tr.Retire(0, ptr.Idx(old))
				break
			}
		}
		tr.Leave(0)
	}
	tr.Flush(0)
	if un := tr.Stats().Unreclaimed(); un > 64 {
		t.Fatalf("stalled thread pinned %d nodes, want ≤ ~scan threshold", un)
	}
	tr.Leave(1)
}

func TestProtectValidatesSource(t *testing.T) {
	// If the link changes between read and publish, Protect must retry
	// and return a currently valid value.
	a := arena.New(64)
	tr := New(a, Config{MaxThreads: 1})
	var reg atomic.Uint64
	tr.Enter(0)
	i1 := tr.Alloc(0)
	reg.Store(ptr.Pack(i1))
	got := tr.Protect(0, 0, &reg)
	if got != ptr.Pack(i1) {
		t.Fatalf("Protect = %#x, want %#x", got, ptr.Pack(i1))
	}
	if hz := tr.hazards[0].slots[0].Load(); hz != ptr.Pack(i1) {
		t.Fatalf("hazard slot holds %#x", hz)
	}
	tr.Leave(0)
	if hz := tr.hazards[0].slots[0].Load(); hz != 0 {
		t.Fatal("Leave must clear hazard slots")
	}
}

func TestProtectKeepsMarkBits(t *testing.T) {
	a := arena.New(64)
	tr := New(a, Config{MaxThreads: 1})
	var link atomic.Uint64
	tr.Enter(0)
	idx := tr.Alloc(0)
	link.Store(ptr.WithMark(ptr.Pack(idx)))
	w := tr.Protect(0, 0, &link)
	if !ptr.Marked(w) || ptr.Idx(w) != idx {
		t.Fatalf("Protect mangled the word: %#x", w)
	}
	// The hazard itself must be clean so scans can match it.
	if hz := tr.hazards[0].slots[0].Load(); hz != ptr.Pack(idx) {
		t.Fatalf("hazard %#x not clean", hz)
	}
	tr.Leave(0)
}

func TestProperties(t *testing.T) {
	tr := New(arena.New(16), Config{MaxThreads: 1})
	if tr.Name() != "hp" {
		t.Fatalf("name %q", tr.Name())
	}
	if p := tr.Properties(); p.Robust != "Yes" || p.Reclamation != "O(mn)" {
		t.Fatalf("properties %+v", p)
	}
}
