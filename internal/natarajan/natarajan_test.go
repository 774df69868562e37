package natarajan

import (
	"testing"

	"hyaline/internal/arena"
	"hyaline/internal/dstest"
	"hyaline/internal/ptr"
	"hyaline/internal/smr"
	"hyaline/internal/trackers"
)

func factory(a *arena.Arena, tr smr.Tracker) dstest.Map {
	return New(a, tr)
}

// suiteOptions serves both the conformance suite and the freed-read
// check.
var suiteOptions = dstest.Options{
	KeySpace: 512,
	// Cleanup retires parent+leaf; deep tag chains may strand a few
	// internal nodes, as in the paper's framework.
	LeakSlack: 2048,
}

func TestAllSchemes(t *testing.T) {
	dstest.RunAll(t, factory, suiteOptions)
}

// TestFreedReads: no hop reads a link out of a freed node, under every
// scheme. A hop through a flagged or tagged edge re-reads the ancestor's
// path edge before it dereferences the node it reached (see seek).
func TestFreedReads(t *testing.T) {
	dstest.FreedReads(t, factory, suiteOptions)
}

func TestSentinelSkeleton(t *testing.T) {
	a := arena.New(64)
	tr := trackers.MustNew("leaky", a, trackers.Config{MaxThreads: 1})
	tree := New(a, tr)
	if tree.Len() != 0 {
		t.Fatalf("fresh tree Len = %d", tree.Len())
	}
	r := a.Deref(tree.rootR)
	if r.Key.Load() != inf2 {
		t.Fatalf("root key %#x", r.Key.Load())
	}
	s := a.Deref(tree.rootS)
	if s.Key.Load() != inf1 {
		t.Fatalf("S key %#x", s.Key.Load())
	}
	if tree.isLeaf(tree.rootS) || !tree.isLeaf(ptr.Clean(s.Left.Load())) {
		t.Fatal("skeleton shape wrong")
	}
}

func TestExternalShapeInvariant(t *testing.T) {
	// After arbitrary sequential churn, every internal node must have two
	// children and in-order leaf keys must be sorted.
	a := arena.New(1 << 14)
	tr := trackers.MustNew("epoch", a, trackers.Config{MaxThreads: 1})
	tree := New(a, tr)
	keys := []uint64{50, 20, 80, 10, 30, 70, 90, 25, 35, 15, 5, 60, 100}
	for _, k := range keys {
		tr.Enter(0)
		if !tree.Insert(0, k, k+1) {
			t.Fatalf("insert %d failed", k)
		}
		tr.Leave(0)
	}
	for _, k := range []uint64{20, 90, 5} {
		tr.Enter(0)
		if !tree.Delete(0, k) {
			t.Fatalf("delete %d failed", k)
		}
		tr.Leave(0)
	}
	var walk func(w ptr.Word) []uint64
	walk = func(w ptr.Word) []uint64 {
		w = ptr.Clean(w)
		n := a.Deref(w)
		l, r := n.Left.Load(), n.Right.Load()
		if ptr.IsNil(l) != ptr.IsNil(r) {
			t.Fatal("internal node with exactly one child")
		}
		if ptr.IsNil(l) {
			if n.Key.Load() <= KeyMax {
				return []uint64{n.Key.Load()}
			}
			return nil
		}
		return append(walk(l), walk(r)...)
	}
	leaves := walk(tree.rootR)
	want := map[uint64]bool{}
	for _, k := range keys {
		want[k] = true
	}
	for _, k := range []uint64{20, 90, 5} {
		delete(want, k)
	}
	if len(leaves) != len(want) {
		t.Fatalf("leaf count %d, want %d", len(leaves), len(want))
	}
	for i := 1; i < len(leaves); i++ {
		if leaves[i-1] >= leaves[i] {
			t.Fatalf("in-order leaves not sorted: %v", leaves)
		}
	}
}

func TestRange(t *testing.T) {
	a := arena.New(1 << 12)
	tr := trackers.MustNew("epoch", a, trackers.Config{MaxThreads: 1})
	tree := New(a, tr)
	collect := func(lo, hi uint64) (keys []uint64) {
		tr.Enter(0)
		defer tr.Leave(0)
		tree.Range(0, lo, hi, func(k, v uint64) bool {
			if v != k+1 {
				t.Fatalf("key %d carries value %d", k, v)
			}
			keys = append(keys, k)
			return true
		})
		return
	}

	if keys := collect(0, KeyMax); len(keys) != 0 {
		t.Fatalf("empty tree scan returned %v", keys)
	}
	for _, k := range []uint64{50, 20, 80, 10, 30, 70, 90, 25, 35, 15, 5, 60, 100} {
		tr.Enter(0)
		if !tree.Insert(0, k, k+1) {
			t.Fatalf("insert %d failed", k)
		}
		tr.Leave(0)
	}
	keys := collect(15, 70)
	want := []uint64{15, 20, 25, 30, 35, 50, 60, 70}
	if len(keys) != len(want) {
		t.Fatalf("Range[15,70] = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Range[15,70] = %v, want %v", keys, want)
		}
	}
	// Stale routers: deleting a key whose router remains in the tree must
	// not derail the successor probing around it.
	for _, k := range []uint64{30, 50} {
		tr.Enter(0)
		if !tree.Delete(0, k) {
			t.Fatalf("delete %d failed", k)
		}
		tr.Leave(0)
	}
	keys = collect(25, 80)
	want = []uint64{25, 35, 60, 70, 80}
	if len(keys) != len(want) {
		t.Fatalf("Range[25,80] after deletes = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Range[25,80] after deletes = %v, want %v", keys, want)
		}
	}
	// hi above KeyMax is clamped: the sentinel leaves stay invisible.
	keys = collect(90, ^uint64(0))
	if len(keys) != 2 || keys[0] != 90 || keys[1] != 100 {
		t.Fatalf("Range[90,max] = %v, want [90 100]", keys)
	}
	if keys := collect(60, 20); len(keys) != 0 {
		t.Fatalf("inverted range returned %v", keys)
	}
	// Early termination.
	n := 0
	tr.Enter(0)
	tree.Range(0, 0, KeyMax, func(_, _ uint64) bool { n++; return n < 3 })
	tr.Leave(0)
	if n != 3 {
		t.Fatalf("early-terminated scan visited %d keys", n)
	}
}

func TestUserKeyRange(t *testing.T) {
	// The sentinels live above KeyMax; everything in the user range must
	// behave normally, including the extremes.
	a := arena.New(1 << 10)
	tr := trackers.MustNew("leaky", a, trackers.Config{MaxThreads: 1})
	tree := New(a, tr)
	tr.Enter(0)
	defer tr.Leave(0)
	for _, k := range []uint64{0, 1, KeyMax / 2, KeyMax} {
		if _, ok := tree.Get(0, k); ok {
			t.Fatalf("empty tree reported key %d", k)
		}
		if !tree.Insert(0, k, k+1) {
			t.Fatalf("insert %d failed", k)
		}
		if v, ok := tree.Get(0, k); !ok || v != k+1 {
			t.Fatalf("get %d = (%d,%v)", k, v, ok)
		}
	}
	if tree.Len() != 4 {
		t.Fatalf("Len = %d", tree.Len())
	}
	for _, k := range []uint64{0, 1, KeyMax / 2, KeyMax} {
		if !tree.Delete(0, k) {
			t.Fatalf("delete %d failed", k)
		}
	}
	if tree.Len() != 0 {
		t.Fatalf("Len = %d after deletes", tree.Len())
	}
}
