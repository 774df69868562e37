// Package bonsai implements the Bonsai tree of Clements, Kaashoek and
// Zeldovich [13] in the form used by the paper's evaluation framework: a
// copy-on-write weight-balanced binary search tree whose writers rebuild
// the access path (with Adams-style rotations), publish it with a single
// CAS on the root, and retire every replaced node. Readers traverse an
// immutable snapshot.
//
// This is the paper's second benchmark (Figures 8b/9b, 11b/12b). Like
// the original framework, it supports the epoch- and era-based schemes
// (Leaky, EBR, IBR, all Hyaline variants) but not HP/HE: protecting an
// unbounded path with a fixed hazard set does not fit a tree whose whole
// path is replaced wholesale ("HP and HE are not implemented for this
// benchmark due to the complexity of the tree rotation operations").
//
// Per-operation retirement volume is O(log n) — by far the highest of
// the four structures — which is what makes this benchmark separate the
// reclamation schemes so clearly (§6: Hyaline's steady ≈10% win over
// EBR).
package bonsai

import (
	"sync/atomic"

	"hyaline/internal/arena"
	"hyaline/internal/ptr"
	"hyaline/internal/smr"
)

// weight is Adams' ω balance factor: a subtree may be at most weight
// times heavier than its sibling.
const weight = 4

type opScratch struct {
	created  []ptr.Word // nodes built this attempt (discard on CAS failure)
	replaced []ptr.Word // old-path nodes to retire on CAS success
	_        [2]uint64
}

// Tree is the copy-on-write weight-balanced tree.
type Tree struct {
	arena   *arena.Arena
	tracker smr.Deref
	root    atomic.Uint64
	scratch []opScratch
}

// New creates an empty tree for up to maxThreads concurrent writers. A
// node keeps its subtree size in its Tail's Aux word, so New widens a
// (arena.Widen): call it before anything allocates from a.
func New(a *arena.Arena, tr smr.Tracker, maxThreads int) *Tree {
	a.Widen()
	return &Tree{
		arena:   a,
		tracker: smr.NewDeref(tr),
		scratch: make([]opScratch, maxThreads),
	}
}

func (t *Tree) size(w ptr.Word) uint64 {
	if ptr.IsNil(w) {
		return 0
	}
	return t.arena.Deref(w).Tail().Aux.Load()
}

// mkNode builds a fresh node; its size is derived from the children.
func (t *Tree) mkNode(tid int, sc *opScratch, key, val uint64, l, r ptr.Word) ptr.Word {
	idx := t.tracker.Alloc(tid)
	n := t.arena.Node(idx)
	n.Key.Store(key)
	n.Val.Store(val)
	n.Left.Store(l)
	n.Right.Store(r)
	n.Tail().Aux.Store(1 + t.size(l) + t.size(r))
	w := ptr.Pack(idx)
	sc.created = append(sc.created, w)
	return w
}

// mkBalanced builds a node for (key,val,l,r), restoring the weight
// invariant with single or double rotations (Adams' functional
// rebalancing — every rotation allocates fresh nodes and marks the
// consumed ones replaced).
func (t *Tree) mkBalanced(tid int, sc *opScratch, key, val uint64, l, r ptr.Word) ptr.Word {
	ln, rn := t.size(l), t.size(r)
	if ln+rn < 2 {
		return t.mkNode(tid, sc, key, val, l, r)
	}
	if rn > weight*ln { // right-heavy
		rNode := t.arena.Deref(r)
		rl := t.protect(tid, &rNode.Left)
		rr := t.protect(tid, &rNode.Right)
		sc.replaced = append(sc.replaced, r)
		if t.size(rl) < t.size(rr) {
			// Single left rotation.
			return t.mkNode(tid, sc, rNode.Key.Load(), rNode.Val.Load(),
				t.mkNode(tid, sc, key, val, l, rl), rr)
		}
		// Double rotation through r's left child.
		rlNode := t.arena.Deref(rl)
		rll := t.protect(tid, &rlNode.Left)
		rlr := t.protect(tid, &rlNode.Right)
		sc.replaced = append(sc.replaced, rl)
		return t.mkNode(tid, sc, rlNode.Key.Load(), rlNode.Val.Load(),
			t.mkNode(tid, sc, key, val, l, rll),
			t.mkNode(tid, sc, rNode.Key.Load(), rNode.Val.Load(), rlr, rr))
	}
	if ln > weight*rn { // left-heavy (mirror image)
		lNode := t.arena.Deref(l)
		ll := t.protect(tid, &lNode.Left)
		lr := t.protect(tid, &lNode.Right)
		sc.replaced = append(sc.replaced, l)
		if t.size(lr) < t.size(ll) {
			return t.mkNode(tid, sc, lNode.Key.Load(), lNode.Val.Load(),
				ll, t.mkNode(tid, sc, key, val, lr, r))
		}
		lrNode := t.arena.Deref(lr)
		lrl := t.protect(tid, &lrNode.Left)
		lrr := t.protect(tid, &lrNode.Right)
		sc.replaced = append(sc.replaced, lr)
		return t.mkNode(tid, sc, lrNode.Key.Load(), lrNode.Val.Load(),
			t.mkNode(tid, sc, lNode.Key.Load(), lNode.Val.Load(), ll, lrl),
			t.mkNode(tid, sc, key, val, lrr, r))
	}
	return t.mkNode(tid, sc, key, val, l, r)
}

func (t *Tree) protect(tid int, addr *atomic.Uint64) ptr.Word {
	return t.tracker.Protect(tid, 0, addr)
}

// Insert adds key→val, returning false if the key already exists.
func (t *Tree) Insert(tid int, key, val uint64) bool {
	sc := &t.scratch[tid]
	for {
		sc.created = sc.created[:0]
		sc.replaced = sc.replaced[:0]
		rootW := t.protect(tid, &t.root)
		newRoot, ok := t.insertRec(tid, sc, rootW, key, val)
		if !ok {
			t.discard(tid, sc)
			return false
		}
		if t.root.CompareAndSwap(rootW, newRoot) {
			t.retireReplaced(tid, sc)
			return true
		}
		t.discard(tid, sc)
	}
}

func (t *Tree) insertRec(tid int, sc *opScratch, w ptr.Word, key, val uint64) (ptr.Word, bool) {
	if ptr.IsNil(w) {
		return t.mkNode(tid, sc, key, val, ptr.Nil, ptr.Nil), true
	}
	n := t.arena.Deref(w)
	k := n.Key.Load()
	switch {
	case key == k:
		return ptr.Nil, false
	case key < k:
		nl, ok := t.insertRec(tid, sc, t.protect(tid, &n.Left), key, val)
		if !ok {
			return ptr.Nil, false
		}
		sc.replaced = append(sc.replaced, w)
		return t.mkBalanced(tid, sc, k, n.Val.Load(), nl, t.protect(tid, &n.Right)), true
	default:
		nr, ok := t.insertRec(tid, sc, t.protect(tid, &n.Right), key, val)
		if !ok {
			return ptr.Nil, false
		}
		sc.replaced = append(sc.replaced, w)
		return t.mkBalanced(tid, sc, k, n.Val.Load(), t.protect(tid, &n.Left), nr), true
	}
}

// Delete removes key, returning false if it is absent.
func (t *Tree) Delete(tid int, key uint64) bool {
	sc := &t.scratch[tid]
	for {
		sc.created = sc.created[:0]
		sc.replaced = sc.replaced[:0]
		rootW := t.protect(tid, &t.root)
		newRoot, ok := t.deleteRec(tid, sc, rootW, key)
		if !ok {
			t.discard(tid, sc)
			return false
		}
		if t.root.CompareAndSwap(rootW, newRoot) {
			t.retireReplaced(tid, sc)
			return true
		}
		t.discard(tid, sc)
	}
}

func (t *Tree) deleteRec(tid int, sc *opScratch, w ptr.Word, key uint64) (ptr.Word, bool) {
	if ptr.IsNil(w) {
		return ptr.Nil, false
	}
	n := t.arena.Deref(w)
	k := n.Key.Load()
	switch {
	case key == k:
		sc.replaced = append(sc.replaced, w)
		l := t.protect(tid, &n.Left)
		r := t.protect(tid, &n.Right)
		if ptr.IsNil(l) {
			return r, true
		}
		if ptr.IsNil(r) {
			return l, true
		}
		mk, mv, nr := t.pullMin(tid, sc, r)
		return t.mkBalanced(tid, sc, mk, mv, l, nr), true
	case key < k:
		nl, ok := t.deleteRec(tid, sc, t.protect(tid, &n.Left), key)
		if !ok {
			return ptr.Nil, false
		}
		sc.replaced = append(sc.replaced, w)
		return t.mkBalanced(tid, sc, k, n.Val.Load(), nl, t.protect(tid, &n.Right)), true
	default:
		nr, ok := t.deleteRec(tid, sc, t.protect(tid, &n.Right), key)
		if !ok {
			return ptr.Nil, false
		}
		sc.replaced = append(sc.replaced, w)
		return t.mkBalanced(tid, sc, k, n.Val.Load(), t.protect(tid, &n.Left), nr), true
	}
}

// pullMin removes the minimum of subtree w, returning its key/value and
// the rebuilt subtree.
func (t *Tree) pullMin(tid int, sc *opScratch, w ptr.Word) (mk, mv uint64, rest ptr.Word) {
	n := t.arena.Deref(w)
	l := t.protect(tid, &n.Left)
	sc.replaced = append(sc.replaced, w)
	if ptr.IsNil(l) {
		return n.Key.Load(), n.Val.Load(), t.protect(tid, &n.Right)
	}
	mk, mv, nl := t.pullMin(tid, sc, l)
	return mk, mv, t.mkBalanced(tid, sc, n.Key.Load(), n.Val.Load(), nl, t.protect(tid, &n.Right))
}

// Get returns the value stored under key, traversing the current
// snapshot without writing.
func (t *Tree) Get(tid int, key uint64) (uint64, bool) {
	w := t.protect(tid, &t.root)
	for !ptr.IsNil(w) {
		n := t.arena.Deref(w)
		k := n.Key.Load()
		switch {
		case key == k:
			return n.Val.Load(), true
		case key < k:
			w = t.protect(tid, &n.Left)
		default:
			w = t.protect(tid, &n.Right)
		}
	}
	return 0, false
}

// retireReplaced hands every replaced old-path node to the tracker.
func (t *Tree) retireReplaced(tid int, sc *opScratch) {
	for _, w := range sc.replaced {
		t.tracker.Retire(tid, ptr.Idx(w))
	}
}

// discard frees the speculative nodes of a failed attempt directly: they
// were never published, so no reclamation is needed — exactly the
// delete an unmanaged implementation performs on its unpublished copies.
func (t *Tree) discard(tid int, sc *opScratch) {
	for _, w := range sc.created {
		t.tracker.Dealloc(tid, ptr.Idx(w))
	}
}

// Len returns the entry count (the root's size field) at quiescence.
func (t *Tree) Len() int {
	return int(t.size(t.root.Load()))
}
