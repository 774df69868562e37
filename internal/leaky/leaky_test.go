package leaky

import (
	"testing"

	"hyaline/internal/arena"
	"hyaline/internal/smr"
	"hyaline/internal/smrtest"
)

func factory(a *arena.Arena, maxThreads int) smr.Tracker {
	return New(a, maxThreads)
}

func TestConformance(t *testing.T) {
	smrtest.RunAll(t, factory, smrtest.Options{SkipQuiescence: true})
}

func TestConformanceExtra(t *testing.T) {
	smrtest.RunExtra(t, factory, smrtest.Options{SkipQuiescence: true})
}

func TestNeverFrees(t *testing.T) {
	a := arena.New(1 << 10)
	tr := New(a, 1)
	tr.Enter(0)
	idx := tr.Alloc(0)
	seq := a.Node(idx).Seq.Load()
	tr.Retire(0, idx)
	tr.Leave(0)
	tr.Flush(0)
	if a.Node(idx).Seq.Load() != seq {
		t.Fatal("leaky tracker freed a node")
	}
	st := tr.Stats()
	if st.Retired != 1 || st.Freed != 0 || st.Unreclaimed() != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestProperties(t *testing.T) {
	tr := New(arena.New(16), 1)
	if tr.Name() != "leaky" {
		t.Fatalf("name %q", tr.Name())
	}
	if p := tr.Properties(); p.Scheme != "Leaky" {
		t.Fatalf("properties %+v", p)
	}
}
