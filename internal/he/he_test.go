package he

import (
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"

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

func TestBirthAndRetireEras(t *testing.T) {
	a := arena.New(1 << 10)
	tr := New(a, Config{MaxThreads: 1, Freq: 1, ScanThreshold: 1 << 30})
	tr.Enter(0)
	idx := tr.Alloc(0) // Freq 1: era bumps on every alloc
	birth := a.Node(idx).Refs.Load()
	if birth != tr.era.Load() {
		t.Fatalf("birth era %d, clock %d", birth, tr.era.Load())
	}
	tr.Alloc(0) // advance the clock past the node's birth
	tr.Retire(0, idx)
	if retire := a.Node(idx).BatchLink.Load(); retire <= birth {
		t.Fatalf("retire era %d not after birth %d", retire, birth)
	}
	tr.Leave(0)
}

// TestEraReservationPinsLifespan: a reservation era inside [birth,
// retire] must block reclamation; eras outside must not.
func TestEraReservationPinsLifespan(t *testing.T) {
	a := arena.New(1 << 10)
	tr := New(a, Config{MaxThreads: 2, Freq: 1, ScanThreshold: 1})

	var reg atomic.Uint64
	tr.Enter(0)
	idx := tr.Alloc(0)
	reg.Store(ptr.Pack(idx))

	tr.Enter(1)
	tr.Protect(1, 1, &reg) // thread 1's era covers the node's lifetime
	seq := a.Node(idx).Seq.Load()

	tr.Retire(0, idx)
	tr.Leave(0)
	tr.Flush(0)
	if a.Node(idx).Seq.Load() != seq {
		t.Fatal("node freed despite a covering era reservation")
	}

	tr.Leave(1)
	tr.Flush(0)
	if a.Node(idx).Seq.Load() == seq {
		t.Fatal("node not freed after reservation cleared")
	}
}

// TestStalledThreadBounded: HE robustness — a stalled thread pins only
// nodes whose lifespans cover its frozen eras; new nodes (born later)
// reclaim freely.
func TestStalledThreadBounded(t *testing.T) {
	a := arena.New(1 << 18)
	tr := New(a, Config{MaxThreads: 2, Freq: 4, ScanThreshold: 32})

	var reg atomic.Uint64
	tr.Enter(1)
	first := tr.Alloc(1)
	reg.Store(ptr.Pack(first))
	tr.Protect(1, 0, &reg) // freeze an era and stall

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
		t.Fatalf("stalled thread pinned %d nodes under HE", un)
	}
	tr.Leave(1)
}

func TestProperties(t *testing.T) {
	tr := New(arena.New(16), Config{MaxThreads: 1})
	if tr.Name() != "he" {
		t.Fatalf("name %q", tr.Name())
	}
	if p := tr.Properties(); p.Robust != "Yes" {
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

// TestCoveredMatchesLinearScan checks the per-pass lookup against the
// definition it replaces: a node is pinned iff some reserved era lies
// in its [birth, retire] lifespan.
func TestCoveredMatchesLinearScan(t *testing.T) {
	f := func(raw []uint8, b, r uint8) bool {
		eras := make([]uint64, len(raw))
		for i, e := range raw {
			eras[i] = uint64(e)
		}
		slices.Sort(eras)
		birth, retire := uint64(min(b, r)), uint64(max(b, r))
		want := false
		for _, e := range eras {
			want = want || (birth <= e && e <= retire)
		}
		return covered(eras, birth, retire) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}
