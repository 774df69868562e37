package bonsai

import (
	"math/rand"
	"testing"

	"hyaline/internal/arena"
	"hyaline/internal/dstest"
	"hyaline/internal/ptr"
	"hyaline/internal/smr"
	"hyaline/internal/trackers"
)

func factory(a *arena.Arena, tr smr.Tracker) dstest.Map {
	return New(a, tr, 64)
}

var suiteOptions = dstest.Options{
	// As in the paper, the Bonsai tree runs under the epoch- and
	// era-based schemes only (no HP/HE).
	Schemes:  []string{"leaky", "epoch", "ibr", "hyaline", "hyaline-1", "hyaline-s", "hyaline-1s"},
	KeySpace: 256,
	// Bonsai writers allocate O(log n) per op; give them headroom.
	ArenaCap:     1 << 22,
	OpsPerThread: 8000,
}

func TestAllSchemes(t *testing.T) {
	dstest.RunAll(t, factory, suiteOptions)
}

func TestFreedReads(t *testing.T) {
	dstest.FreedReads(t, factory, suiteOptions)
}

// TestWeightBalance checks the BB[ω] invariant after sequential inserts
// in adversarial (sorted) order.
func TestWeightBalance(t *testing.T) {
	a := arena.New(1 << 20)
	tr := trackers.MustNew("epoch", a, trackers.Config{MaxThreads: 1})
	tree := New(a, tr, 1)
	const n = 4096
	for i := uint64(0); i < n; i++ {
		tr.Enter(0)
		if !tree.Insert(0, i, i) {
			t.Fatalf("insert %d failed", i)
		}
		tr.Leave(0)
	}
	if tree.Len() != n {
		t.Fatalf("Len = %d", tree.Len())
	}
	depth := 0
	var check func(w ptr.Word, d int)
	check = func(w ptr.Word, d int) {
		if ptr.IsNil(w) {
			return
		}
		if d > depth {
			depth = d
		}
		node := a.Deref(w)
		l, r := node.Left.Load(), node.Right.Load()
		ls, rs := tree.size(l), tree.size(r)
		if node.Tail().Aux.Load() != 1+ls+rs {
			t.Fatalf("size field wrong at key %d", node.Key.Load())
		}
		if ls+rs >= 2 && (ls > weight*rs+1 || rs > weight*ls+1) {
			t.Fatalf("weight invariant violated at key %d: %d vs %d", node.Key.Load(), ls, rs)
		}
		check(l, d+1)
		check(r, d+1)
	}
	check(tree.root.Load(), 1)
	// A balanced tree of 4096 nodes must be shallow; a degenerate list
	// would be 4096 deep.
	if depth > 40 {
		t.Fatalf("depth %d: tree effectively unbalanced", depth)
	}
}

// TestSnapshotIsolation: a reader traversing an old root snapshot must
// see a consistent tree even while writers replace paths.
func TestSnapshotIsolation(t *testing.T) {
	a := arena.New(1 << 20)
	tr := trackers.MustNew("epoch", a, trackers.Config{MaxThreads: 2})
	tree := New(a, tr, 2)
	for i := uint64(0); i < 1000; i += 2 {
		tr.Enter(0)
		tree.Insert(0, i, i*31+7)
		tr.Leave(0)
	}
	// Reader holds its epoch across many writer updates.
	tr.Enter(1)
	rootSnap := tree.root.Load()
	for i := uint64(1); i < 1000; i += 2 {
		tr.Enter(0)
		tree.Insert(0, i, i*31+7)
		tr.Leave(0)
	}
	// Walk the old snapshot: all even keys present with correct values.
	var count func(w ptr.Word) int
	count = func(w ptr.Word) int {
		if ptr.IsNil(w) {
			return 0
		}
		n := a.Deref(w)
		if n.Key.Load() == arena.Poison {
			t.Fatal("snapshot node poisoned (freed under a live reader)")
		}
		if n.Key.Load()%2 != 0 {
			t.Fatalf("odd key %d in pre-update snapshot", n.Key.Load())
		}
		return 1 + count(n.Left.Load()) + count(n.Right.Load())
	}
	if got := count(rootSnap); got != 500 {
		t.Fatalf("snapshot has %d nodes, want 500", got)
	}
	tr.Leave(1)
}

// TestFailedOpsLeakNothing: failed inserts/deletes and CAS retries must
// recycle all speculative nodes.
func TestFailedOpsLeakNothing(t *testing.T) {
	a := arena.New(1 << 16)
	tr := trackers.MustNew("epoch", a, trackers.Config{MaxThreads: 1})
	tree := New(a, tr, 1)
	rng := rand.New(rand.NewSource(7))
	live := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(64))
		tr.Enter(0)
		if rng.Intn(2) == 0 {
			if tree.Insert(0, k, k) {
				live[k] = true
			}
		} else {
			if tree.Delete(0, k) {
				delete(live, k)
			}
		}
		tr.Leave(0)
	}
	if fl, ok := tr.(smr.Flusher); ok {
		fl.Flush(0)
	}
	st := tr.Stats()
	if un := st.Unreclaimed(); un != 0 {
		t.Fatalf("%d unreclaimed after flush", un)
	}
	if got := a.Live(); got != int64(len(live)) {
		t.Fatalf("arena live %d, tree size %d", got, len(live))
	}
}
