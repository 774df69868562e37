// Package natarajan implements the lock-free external binary search tree
// of Natarajan & Mittal [29], the paper's fourth benchmark (Figures
// 8d/9d, 11d/12d).
//
// The tree is leaf-oriented: internal nodes route, leaves store keys.
// Deletion marks *edges* rather than nodes: the edge to the victim leaf
// is flagged (injection), then the whole chain from the ancestor's
// untagged edge down to the leaf's parent is spliced out in one CAS
// (cleanup), with the sibling promoted. Tag bits freeze sibling edges
// during cleanup. Insertion splices a fresh internal/leaf pair under the
// reached leaf.
//
// Reclamation follows the evaluation framework the paper uses: the
// thread whose cleanup CAS succeeds retires the parent and the leaf.
// Under deep tag chains (rare, contended deletes) the intermediate
// nodes of a spliced chain are never retired, so they leak: a few nodes
// per such delete, an imprecision shared with the original framework.
//
// A frozen (flagged or tagged) edge defeats the validation that hazard
// pointers, hazard eras and intervals rely on: re-reading it shows the
// same word after its target has been spliced out and freed. This is
// why pointer- and era-based schemes do not apply to this tree
// unmodified (Brown, PODC 2015). seek therefore checks a hop through a
// marked edge against the ancestor's path edge, and keeps every node of
// its window in a slot of its own; see there.
//
// Sentinel keys occupy the top of the key space: user keys must be below
// KeyMax.
package natarajan

import (
	"math"
	"math/bits"
	"sync/atomic"

	"hyaline/internal/arena"
	"hyaline/internal/ptr"
	"hyaline/internal/smr"
)

// Sentinel keys (the paper's ∞0 < ∞1 < ∞2).
const (
	inf2 = math.MaxUint64
	inf1 = math.MaxUint64 - 1
	inf0 = math.MaxUint64 - 2

	// KeyMax is the largest user key.
	KeyMax = inf0 - 1
)

// Tree is the lock-free external BST.
type Tree struct {
	arena   *arena.Arena
	tracker smr.Deref

	// rootR is the topmost internal node (key ∞2); rootS its left child
	// (key ∞1). All user keys live under S's left subtree.
	rootR ptr.Word
	rootS ptr.Word
}

// seekRecord is the paper's seek window, plus the router key of the
// deepest internal node where the descent turned left. In a
// leaf-oriented BST the left turns get smaller going down, so that
// router is the smallest one greater than key: when the leaf holds a key
// below the target, the next key in the tree (if any) is at or above it
// (see Range).
type seekRecord struct {
	ancestor  ptr.Word // deepest node whose edge on the path is untagged
	successor ptr.Word // ancestor's child on the access path
	parent    ptr.Word // leaf's parent
	leaf      ptr.Word // terminal leaf (clean)
	diverge   uint64   // deepest left-turn router key; ∞1 from the turn at S
}

// New creates a tree with the three-leaf sentinel skeleton.
func New(a *arena.Arena, tr smr.Tracker) *Tree {
	t := &Tree{arena: a, tracker: smr.NewDeref(tr)}
	mkLeaf := func(key uint64) ptr.Word {
		idx := tr.Alloc(0)
		n := a.Node(idx)
		n.Key.Store(key)
		n.Left.Store(ptr.Nil) // leaves are identified by nil children
		n.Right.Store(ptr.Nil)
		return ptr.Pack(idx)
	}
	l0 := mkLeaf(inf0)
	l1 := mkLeaf(inf1)
	l2 := mkLeaf(inf2)
	sIdx := tr.Alloc(0)
	s := a.Node(sIdx)
	s.Key.Store(inf1)
	s.Left.Store(l0)
	s.Right.Store(l1)
	t.rootS = ptr.Pack(sIdx)
	rIdx := tr.Alloc(0)
	r := a.Node(rIdx)
	r.Key.Store(inf2)
	r.Left.Store(t.rootS)
	r.Right.Store(l2)
	t.rootR = ptr.Pack(rIdx)
	return t
}

// childAddr returns the routing edge of node w for key.
func (t *Tree) childAddr(w ptr.Word, key uint64) *atomic.Uint64 {
	n := t.arena.Deref(w)
	if key < n.Key.Load() {
		return &n.Left
	}
	return &n.Right
}

// siblingAddr returns the other edge.
func (t *Tree) siblingAddr(w ptr.Word, key uint64) *atomic.Uint64 {
	n := t.arena.Deref(w)
	if key < n.Key.Load() {
		return &n.Right
	}
	return &n.Left
}

// isLeaf reports whether the node has no children. Internal nodes always
// have both.
func (t *Tree) isLeaf(w ptr.Word) bool {
	return ptr.IsNil(t.arena.Deref(w).Left.Load())
}

// seek descends to the leaf for key, maintaining the ancestor/successor
// window (the Fig. 5 seek of [29]): ancestor is the deepest node on the
// access path whose outgoing path edge is untagged, successor its child.
//
// Each hop protects the node it reaches in a slot that no node of the
// window holds, so the ancestor, successor, parent and leaf stay
// protected for as long as they are in the window — cleanup and Insert
// CAS through them — and a descent needs five slots.
//
// A flagged or tagged edge is frozen: its node is being spliced out, and
// re-reading the edge (Protect's validation under hazard pointers and
// eras) no longer shows whether the node it points to is still in the
// tree. Everything between the successor and such an edge hangs off the
// ancestor's path edge (the ancestor counted with the node the hop
// leaves), so after a hop through a marked edge seek re-reads that edge:
// while it still points, unmarked, at the successor, the chain is
// attached and the protection taken before the re-read holds; once it
// has moved, seek restarts from the root. Unmarked hops pay nothing
// extra.
func (t *Tree) seek(tid int, key uint64) (s seekRecord) {
	tr := t.tracker
restart:
	for {
		s = seekRecord{ancestor: t.rootR, successor: t.rootS, parent: t.rootR, leaf: t.rootS, diverge: inf1}
		parentField := t.rootS // R's edge into S, never marked
		// The slot of each window node's protection as a one-bit mask; R
		// and S are never freed and hold none.
		var ma, ms, mp, ml uint8
		for {
			n := t.arena.Deref(s.leaf)
			rk := n.Key.Load()
			addr := &n.Right
			if key < rk {
				addr = &n.Left
			}
			used := ma | ms | mp | ml
			mc := ^used & (used + 1) // the lowest free slot
			currentField := tr.Protect(tid, bits.TrailingZeros8(mc), addr)
			if ptr.Bits(currentField) != 0 {
				// The window as it stands with s.leaf in it: an untagged
				// edge into s.leaf makes s.parent the ancestor.
				anc, succ := s.ancestor, s.successor
				if !ptr.Tagged(parentField) {
					anc, succ = s.parent, s.leaf
				}
				if t.childAddr(anc, key).Load() != succ {
					continue restart
				}
			}
			current := ptr.Clean(currentField)
			if ptr.IsNil(current) {
				return s // s.leaf has no children: it is the leaf
			}
			if key < rk {
				s.diverge = rk
			}
			if !ptr.Tagged(parentField) {
				s.ancestor, s.successor, ma, ms = s.parent, s.leaf, mp, ml
			}
			s.parent, s.leaf, mp, ml = s.leaf, current, ml, mc
			parentField = currentField
		}
	}
}

// Insert adds key→val, returning false if the key already exists.
func (t *Tree) Insert(tid int, key, val uint64) bool {
	tr := t.tracker
	var newInternal, newLeaf ptr.Word
	for {
		s := t.seek(tid, key)
		leafNode := t.arena.Deref(s.leaf)
		if leafNode.Key.Load() == key {
			if !ptr.IsNil(newLeaf) {
				// Never published: free the speculative pair directly.
				tr.Dealloc(tid, ptr.Idx(newLeaf))
				tr.Dealloc(tid, ptr.Idx(newInternal))
			}
			return false
		}
		if ptr.IsNil(newLeaf) {
			li := tr.Alloc(tid)
			ln := t.arena.Node(li)
			ln.Key.Store(key)
			ln.Val.Store(val)
			ln.Left.Store(ptr.Nil) // leaf: nil children
			ln.Right.Store(ptr.Nil)
			newLeaf = ptr.Pack(li)
			newInternal = ptr.Pack(tr.Alloc(tid))
		}
		// Build the replacement internal node over {newLeaf, s.leaf}.
		in := t.arena.Deref(newInternal)
		lk := leafNode.Key.Load()
		if key < lk {
			in.Key.Store(lk)
			in.Left.Store(newLeaf)
			in.Right.Store(s.leaf)
		} else {
			in.Key.Store(key)
			in.Left.Store(s.leaf)
			in.Right.Store(newLeaf)
		}
		childAddr := t.childAddr(s.parent, key)
		if childAddr.CompareAndSwap(s.leaf, newInternal) {
			return true
		}
		// Failed: if the edge still points at our leaf but is flagged or
		// tagged, help the pending delete along (Fig. 6 of [29]).
		now := childAddr.Load()
		if ptr.Clean(now) == s.leaf && ptr.Bits(now) != 0 {
			t.cleanup(tid, key, s)
		}
	}
}

// Delete removes key, returning false if it is absent. Injection flags
// the leaf's edge; cleanup (possibly by helpers) splices it out.
func (t *Tree) Delete(tid int, key uint64) bool {
	injected := false
	var victim ptr.Word
	for {
		s := t.seek(tid, key)
		if !injected {
			leafNode := t.arena.Deref(s.leaf)
			if leafNode.Key.Load() != key {
				return false
			}
			childAddr := t.childAddr(s.parent, key)
			if childAddr.CompareAndSwap(s.leaf, ptr.WithFlag(s.leaf)) {
				injected = true
				victim = s.leaf
				if t.cleanup(tid, key, s) {
					return true
				}
				continue
			}
			// Injection failed: help whatever got in the way, retry.
			now := childAddr.Load()
			if ptr.Clean(now) == s.leaf && ptr.Bits(now) != 0 {
				t.cleanup(tid, key, s)
			}
			continue
		}
		// Already injected: we succeed once our victim leaf is gone. The
		// victim is not protected across seeks, so once gone it may be
		// freed and its index reused by a fresh leaf on the same path; only
		// a flagged edge into it still names our victim (a flag moves with
		// the leaf when a cleanup promotes it). Cleaning up past an
		// unflagged edge would splice out a live subtree.
		if s.leaf != victim {
			return true
		}
		if now := t.childAddr(s.parent, key).Load(); !ptr.Flagged(now) || ptr.Clean(now) != victim {
			return true
		}
		if t.cleanup(tid, key, s) {
			return true
		}
	}
}

// cleanup splices the chain from the ancestor's untagged edge down to
// the parent out of the tree, promoting one of the parent's subtrees
// (Fig. 7 of [29]). It returns true if this thread's CAS performed the
// splice, in which case it retires the parent and the victim leaf.
func (t *Tree) cleanup(tid int, key uint64, s seekRecord) bool {
	tr := t.tracker
	ancestorAddr := t.childAddr(s.ancestor, key)
	childAddr := t.childAddr(s.parent, key)
	siblingAddr := t.siblingAddr(s.parent, key)

	// promotedAddr is the edge whose subtree survives; victimAddr the
	// flagged edge whose leaf is being deleted. If the key-side edge is
	// not flagged, we are helping a delete of the *other* leaf, so the
	// roles swap (Fig. 7's "addressOfSiblingField = addressOfChildField").
	promotedAddr, victimAddr := siblingAddr, childAddr
	if !ptr.Flagged(childAddr.Load()) {
		promotedAddr, victimAddr = childAddr, siblingAddr
	}

	// Tag the promoted edge so it cannot change while being spliced; a
	// flag already present (concurrent delete of that leaf) is kept.
	for {
		w := promotedAddr.Load()
		if ptr.Tagged(w) {
			break
		}
		if promotedAddr.CompareAndSwap(w, ptr.WithTag(w)) {
			break
		}
	}

	promoted := promotedAddr.Load()
	// Splice: the ancestor's path edge jumps straight to the promoted
	// subtree, keeping its flag but dropping the tag.
	newWord := ptr.Clean(promoted)
	if ptr.Flagged(promoted) {
		newWord = ptr.WithFlag(newWord)
	}
	if !ancestorAddr.CompareAndSwap(s.successor, newWord) {
		return false
	}
	// The chain is unreachable; both edges below parent are frozen.
	// Retire the parent and the victim leaf (the paper's evaluation
	// framework retires exactly these two).
	tr.Retire(tid, ptr.Idx(s.parent))
	tr.Retire(tid, ptr.Idx(ptr.Clean(victimAddr.Load())))
	return true
}

// Range visits every key in [lo, hi] in ascending order, calling fn for
// each until it returns false. The scan is a leaf-order traversal
// implemented by successor probing: each step is a seek for the cursor
// (so it is lock-free and reclamation-safe under every scheme); if the
// reached leaf holds a key at or above the cursor it is the successor
// and is emitted, otherwise the cursor jumps to the deepest left-turn
// router (the seek record's diverge), the least upper bound the descent
// established for the missing keys, and probes again.
// Either way the cursor strictly increases, so every scan is sorted,
// duplicate-free and bounded by [lo, hi].
//
// A scan is not an atomic snapshot: keys inserted or deleted while it is
// in flight may or may not be observed (a leaf whose edge is flagged by
// a pending delete may still be emitted, exactly as Get may still return
// it).
func (t *Tree) Range(tid int, lo, hi uint64, fn func(key, val uint64) bool) {
	if hi > KeyMax {
		hi = KeyMax // the sentinel leaves are never user-visible
	}
	cursor := lo
	for cursor <= hi {
		sr := t.seek(tid, cursor)
		n := t.arena.Deref(sr.leaf)
		if k := n.Key.Load(); k >= cursor {
			if k > hi {
				return
			}
			if !fn(k, n.Val.Load()) {
				return
			}
			if k == hi {
				return
			}
			cursor = k + 1
		} else {
			// cursor is absent; the next candidate key is >= diverge.
			if sr.diverge > hi {
				return
			}
			cursor = sr.diverge
		}
	}
}

// Get returns the value stored under key.
func (t *Tree) Get(tid int, key uint64) (uint64, bool) {
	s := t.seek(tid, key)
	n := t.arena.Deref(s.leaf)
	if n.Key.Load() != key {
		return 0, false
	}
	return n.Val.Load(), true
}

// Len counts user-key leaves at quiescence.
func (t *Tree) Len() int {
	return t.countLeaves(t.rootR)
}

func (t *Tree) countLeaves(w ptr.Word) int {
	w = ptr.Clean(w)
	n := t.arena.Deref(w)
	if t.isLeaf(w) {
		if n.Key.Load() <= KeyMax {
			return 1
		}
		return 0
	}
	return t.countLeaves(n.Left.Load()) + t.countLeaves(n.Right.Load())
}
