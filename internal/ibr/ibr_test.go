package ibr

import (
	"reflect"
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

func TestIntervalOpensAndCloses(t *testing.T) {
	a := arena.New(64)
	tr := New(a, Config{MaxThreads: 1})
	tr.Enter(0)
	iv := &tr.resv[0]
	if iv.lower.Load() == 0 || iv.upper.Load() == 0 {
		t.Fatal("Enter must open the reservation interval")
	}
	if iv.lower.Load() > iv.upper.Load() {
		t.Fatal("lower > upper after Enter")
	}
	tr.Leave(0)
	if iv.lower.Load() != 0 || iv.upper.Load() != 0 {
		t.Fatal("Leave must close the interval")
	}
}

func TestProtectRaisesUpper(t *testing.T) {
	a := arena.New(1 << 10)
	tr := New(a, Config{MaxThreads: 1, Freq: 1})
	tr.Enter(0)
	lower := tr.resv[0].lower.Load()
	var reg atomic.Uint64
	for i := 0; i < 100; i++ { // Freq 1: each alloc advances the era
		idx := tr.Alloc(0)
		reg.Store(ptr.Pack(idx))
		tr.Protect(0, 0, &reg)
	}
	iv := &tr.resv[0]
	if iv.lower.Load() != lower {
		t.Fatal("lower must stay fixed during the operation")
	}
	if iv.upper.Load() < lower+100 {
		t.Fatalf("upper = %d did not track the era clock (lower %d)", iv.upper.Load(), lower)
	}
	tr.Leave(0)
}

// TestLifespanOverlapPins: a node whose lifespan overlaps an active
// interval must survive scans; once disjoint, it must go.
func TestLifespanOverlapPins(t *testing.T) {
	a := arena.New(1 << 10)
	tr := New(a, Config{MaxThreads: 2, Freq: 1, ScanThreshold: 1})

	var reg atomic.Uint64
	tr.Enter(0)
	idx := tr.Alloc(0)
	reg.Store(ptr.Pack(idx))

	tr.Enter(1)
	tr.Protect(1, 0, &reg)
	seq := a.Node(idx).Seq.Load()

	tr.Retire(0, idx)
	tr.Leave(0)
	tr.Flush(0)
	if a.Node(idx).Seq.Load() != seq {
		t.Fatal("node freed while an overlapping interval was active")
	}

	tr.Leave(1)
	tr.Flush(0)
	if a.Node(idx).Seq.Load() == seq {
		t.Fatal("node not freed after the interval closed")
	}
}

// TestStalledThreadBounded: 2GE-IBR robustness — a stalled interval pins
// only nodes born before its upper bound.
func TestStalledThreadBounded(t *testing.T) {
	a := arena.New(1 << 18)
	tr := New(a, Config{MaxThreads: 2, Freq: 4, ScanThreshold: 32})

	var reg atomic.Uint64
	tr.Enter(1)
	first := tr.Alloc(1)
	reg.Store(ptr.Pack(first))
	tr.Protect(1, 0, &reg) // freeze the interval and stall

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
	if un := tr.Stats().Unreclaimed(); un > 128 {
		t.Fatalf("stalled interval pinned %d nodes under IBR", un)
	}
	tr.Leave(1)
}

func TestProperties(t *testing.T) {
	tr := New(arena.New(16), Config{MaxThreads: 1})
	if tr.Name() != "ibr" {
		t.Fatalf("name %q", tr.Name())
	}
	if p := tr.Properties(); p.API != "Simple (2GE)" {
		t.Fatalf("properties %+v", p)
	}
}

// TestEraOwnLine checks that the era clock, which advances every Freq
// allocations per thread, shares no cache line with the tracker fields
// every operation reads. Lines are counted from the start of the struct
// (see smrtest.OwnLine).
func TestEraOwnLine(t *testing.T) {
	smrtest.OwnLine(t, reflect.TypeFor[Tracker](), "era")
}
