// Package skiplist implements a lock-free concurrent skiplist in the
// style of Fraser and of Herlihy & Shavit's LockFreeSkipList: a sorted
// multi-level structure whose towers are single arena nodes carrying one
// next-link word per level (arena.Node.Link): Left, then the seven Extra
// words of the node's Tail. A tower of height 1 — three in four of them —
// is one 64-byte node and has no Tail; a taller one is an arena pair, a
// node and its Tail, 128 bytes (arena.Arena.AllocWide). Deletion marks a
// node's link at every level of its tower (Harris-style: the mark on a
// node's own link word logically deletes the node at that level) and
// traversals help unlink marked nodes level by level.
//
// Towers are promoted with probability 1/4 per level (randomHeight), so
// level l holds about n/4^l nodes and the MaxHeight = 8 link words an
// arena node carries index 4^8 = 65 536 keys at the ideal density; a
// search examines ~4 nodes per level, under 30 in all. The ratio is a
// constant, not an option: the height is capped by the node layout, and
// 1/4 is what makes eight levels enough for the key counts this
// repository runs (1/2 would top out at 2^8 = 256 keys and walk n/256
// nodes along the top level of anything bigger).
//
// The skiplist is the first multi-link workload of the benchmark suite:
// taller towers mean more link dereferences per operation, speculative
// Alloc/Dealloc on failed CASes, and — unlike the list, hashmap and
// trees — a node that must be unlinked from several places before it may
// be retired. That last point is the reclamation-interesting part, and
// the reason a naive port of the textbook algorithm is unsafe under the
// schemes tested here: retiring a node after unlinking only its bottom
// level leaves it reachable through the upper levels, and an
// epoch/era/pointer scheme would free it under a later-arriving reader.
//
// Exactly-once retire protocol: each node carries a link-level bitmask
// (in the Right word) of tower levels it still owns. The mask is set to
// (1<<height)-1 before the node is published. A level's bit is cleared
// exactly once, either by the unique thread whose CAS physically unlinks
// the node at that level (a level can never be re-linked: linking to a
// node at level i requires CASing a word that still equals the node's
// reference, and after the unlink no such word exists), or by the
// inserting thread abandoning levels it never got to link. Whoever
// clears the last bit proves the node unreachable from every level and
// retires it — the skiplist analogue of "the thread dropping the last
// reference frees the batch".
package skiplist

import (
	"sync/atomic"

	"hyaline/internal/arena"
	"hyaline/internal/ptr"
	"hyaline/internal/smr"
)

// MaxHeight is the tallest tower, bounded by the arena's per-node link
// words. With p = 1/4 promotion, height 8 indexes 4^8 = 65 536 elements
// at the ideal density and degrades gently beyond that: the top level
// grows by one node per 4^7 keys, so a million keys add ~30 top-level
// visits to a search.
const MaxHeight = arena.MaxLinks

// SkipList is a lock-free sorted map with per-node towers.
//
// Node field usage, on top of the reclamation header:
//
//	Key, Val      — the entry
//	Left + Extra  — the tower: Link(l) is the level-l next word, whose
//	                mark bit logically deletes the node at that level
//	Tail().Aux    — a pair's tower height (2 and up), immutable after
//	                publish (HE/IBR recycle Aux as the retire era, but
//	                only once the node is retired, which the mask
//	                protocol orders after every reader that cares about
//	                the height); a node that is not a pair has height 1
//	Right         — the link-level bitmask of the retire protocol
type SkipList struct {
	arena   *arena.Arena
	tracker smr.Deref
	head    [MaxHeight]atomic.Uint64
	seeds   []paddedSeed
}

type paddedSeed struct {
	v uint64
	_ [7]uint64
}

// New creates an empty skiplist managed by tr for up to maxThreads
// concurrent threads (tower-height randomness is sharded by tid).
func New(a *arena.Arena, tr smr.Tracker, maxThreads int) *SkipList {
	if maxThreads < 1 {
		maxThreads = 1
	}
	s := &SkipList{arena: a, tracker: smr.NewDeref(tr), seeds: make([]paddedSeed, maxThreads)}
	for i := range s.seeds {
		s.seeds[i].v = uint64(i)*2654435761 + 0x9E3779B97F4A7C15
	}
	return s
}

// randomHeight draws a geometric(1/4) tower height in [1, MaxHeight]
// from the thread-local xorshift state, two random bits per level.
func (s *SkipList) randomHeight(tid int) int {
	x := s.seeds[tid].v
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.seeds[tid].v = x
	h := 1
	for x&3 == 0 && h < MaxHeight {
		h++
		x >>= 2
	}
	return h
}

// height returns the tower height of node idx: 1 unless it is a pair,
// which keeps its height in its Tail's Aux word.
func (s *SkipList) height(idx ptr.Index, n *arena.Node) int {
	if !s.arena.Wide(idx) {
		return 1
	}
	return int(n.Tail().Aux.Load())
}

// unlinked records that the node referenced by w lost tower level, and
// retires it when that was the last level linking it into the structure.
func (s *SkipList) unlinked(tid int, w ptr.Word, level int) {
	n := s.arena.Deref(w)
	bit := uint64(1) << level
	old := n.Right.And(^bit)
	if old == bit {
		s.tracker.Retire(tid, ptr.Idx(w))
	}
}

// abandon clears the mask bits of levels [from, height) that the
// inserter set upfront but never linked (the node was deleted before the
// tower finished growing), retiring the node if those were the last.
func (s *SkipList) abandon(tid int, w ptr.Word, from, height int) {
	n := s.arena.Deref(w)
	rest := (uint64(1)<<height - 1) &^ (uint64(1)<<from - 1)
	old := n.Right.And(^rest)
	if old&^rest == 0 && old != 0 {
		s.tracker.Retire(tid, ptr.Idx(w))
	}
}

// find locates the first node with Key >= key at the given level. It
// returns the address of the level link pointing at that node (prevAddr)
// and the protected word for the node (curr, possibly nil). On the way
// down it unlinks every marked node it meets — at every level, not just
// the target — applying the mask protocol to each unlink.
//
// Protection mirrors the list's three rotating hazard slots: the pred
// node keeps its slot while curr and next rotate through the other two,
// and the validation read of *prevAddr doubles as hazard validation and
// as the unmarked-predecessor check. Descents keep the pred node (and
// its slot) and re-protect curr from the lower link. A marked curr came
// out of a deleted pred's frozen link and may already be free, so the
// walk restarts before dereferencing it (Michael's order; the
// validation would reject it anyway).
func (s *SkipList) find(tid int, key uint64, targetLevel int) (prevAddr *atomic.Uint64, curr ptr.Word, found bool) {
	tr := s.tracker
retry:
	for {
		prevNode := ptr.Nil // pred node of the current level; Nil = head
		sp := 0             // hazard slot of the pred node
		for level := MaxHeight - 1; level >= targetLevel; level-- {
			if ptr.IsNil(prevNode) {
				prevAddr = &s.head[level]
			} else {
				prevAddr = s.arena.Deref(prevNode).Link(level)
			}
			sc := (sp + 1) % 3
			curr = tr.Protect(tid, sc, prevAddr)
			for {
				if ptr.IsNil(curr) {
					break // level exhausted: descend
				}
				if ptr.Marked(curr) {
					continue retry // out of a deleted pred: may be free
				}
				cn := s.arena.Deref(curr)
				next := tr.Protect(tid, (sc+1)%3, cn.Link(level))
				// Validate: pred still links to curr and is not marked.
				if prevAddr.Load() != ptr.Clean(curr) {
					continue retry
				}
				if ptr.Marked(next) {
					// curr is logically deleted at this level: unlink it
					// and clear its level bit (possibly retiring it).
					if !prevAddr.CompareAndSwap(ptr.Clean(curr), ptr.Clean(next)) {
						continue retry
					}
					s.unlinked(tid, curr, level)
					curr = tr.Protect(tid, sc, prevAddr)
					continue
				}
				if cn.Key.Load() >= key {
					break // found this level's frontier: descend
				}
				prevNode = ptr.Clean(curr)
				prevAddr = cn.Link(level)
				sp = sc
				sc = (sc + 1) % 3 // cn keeps its hazard while serving as pred
				curr = next
			}
			if level == targetLevel {
				if !ptr.IsNil(curr) && s.arena.Deref(curr).Key.Load() == key {
					return prevAddr, curr, true
				}
				return prevAddr, curr, false
			}
		}
		panic("skiplist: unreachable")
	}
}

// Insert adds key→val; it returns false if the key already exists. The
// caller must wrap the call in Enter/Leave (the harness does). The new
// node is linearized by the bottom-level CAS; upper tower levels are
// linked afterwards, one fresh find per level so the pred stays
// protected, and abandoned if the node is deleted meanwhile.
func (s *SkipList) Insert(tid int, key, val uint64) bool {
	tr := s.tracker
	h := s.randomHeight(tid)
	newW := ptr.Nil
	var n *arena.Node
	for {
		prevAddr, curr, f := s.find(tid, key, 0)
		if f {
			if !ptr.IsNil(newW) {
				// Speculative node never published: free it directly.
				tr.Dealloc(tid, ptr.Idx(newW))
			}
			return false
		}
		if ptr.IsNil(newW) {
			var idx ptr.Index
			if h == 1 {
				idx = tr.Alloc(tid)
			} else {
				idx = tr.AllocWide(tid)
			}
			n = s.arena.Node(idx)
			// The node is ours until the level-0 CAS below publishes it,
			// and the CAS orders these stores before it: plain stores.
			ptr.StoreOwned(&n.Key, key)
			ptr.StoreOwned(&n.Val, val)
			ptr.StoreOwned(&n.Right, uint64(1)<<h-1) // own every tower level
			if h > 1 {
				ptr.StoreOwned(&n.Tail().Aux, uint64(h))
				for i := 1; i < h; i++ {
					ptr.StoreOwned(n.Link(i), ptr.Nil)
				}
			}
			newW = ptr.Pack(idx)
		}
		ptr.StoreOwned(n.Link(0), ptr.Clean(curr))
		if prevAddr.CompareAndSwap(ptr.Clean(curr), newW) {
			break
		}
	}
	for level := 1; level < h; level++ {
		for {
			w := n.Link(level).Load()
			if ptr.Marked(w) {
				// Deleted before the tower finished: the unreached levels
				// were never linked, so nothing will ever unlink them.
				s.abandon(tid, newW, level, h)
				return true
			}
			prevAddr, succ, _ := s.find(tid, key, level)
			// Point the tower at the successor first (guarded against a
			// concurrent delete marking this level), then splice in.
			if !n.Link(level).CompareAndSwap(w, ptr.Clean(succ)) {
				continue
			}
			if prevAddr.CompareAndSwap(ptr.Clean(succ), newW) {
				if ptr.Marked(n.Link(level).Load()) {
					// The deleter may have searched before this splice
					// and missed it: help unlink, then stop growing.
					s.abandon(tid, newW, level+1, h)
					s.find(tid, key, 0)
					return true
				}
				break
			}
		}
	}
	return true
}

// Delete removes key, returning false if it is absent. The tower is
// marked top-down; the bottom-level mark is the linearization point and
// elects the single winning deleter, which then helps unlink physically.
func (s *SkipList) Delete(tid int, key uint64) bool {
	for {
		_, curr, f := s.find(tid, key, 0)
		if !f {
			return false
		}
		cn := s.arena.Deref(curr)
		h := s.height(ptr.Idx(curr), cn)
		if h < 1 || h > MaxHeight {
			// Aux is only overwritten (by HE/IBR, as the retire era) once
			// the node is retired, i.e. this candidate lost a race long
			// ago; a fresh find will no longer return it.
			continue
		}
		for level := h - 1; level >= 1; level-- {
			for {
				w := cn.Link(level).Load()
				if ptr.Marked(w) {
					break
				}
				cn.Link(level).CompareAndSwap(w, ptr.WithMark(w))
			}
		}
		for {
			w := cn.Link(0).Load()
			if ptr.Marked(w) {
				break // another deleter won; re-find (it may be re-inserted)
			}
			if cn.Link(0).CompareAndSwap(w, ptr.WithMark(w)) {
				// Winner: physically unlink what this traversal can reach.
				s.find(tid, key, 0)
				return true
			}
		}
	}
}

// Get returns the value stored under key. It shares find, so it also
// helps unlink marked nodes, as in Michael's original list.
func (s *SkipList) Get(tid int, key uint64) (uint64, bool) {
	_, curr, f := s.find(tid, key, 0)
	if !f {
		return 0, false
	}
	return s.arena.Deref(curr).Val.Load(), true
}

// Range visits every key in [lo, hi] in ascending order, calling fn for
// each until it returns false. Positioning is logarithmic: find descends
// the tower levels to the first key >= cursor, then the scan walks the
// bottom level only, with the same three-slot protection discipline as
// find but on hazard slots 3..5 — disjoint from find's 0..2, so the
// predecessor link returned by find stays protected while the walk takes
// over, and a validation failure can re-descend instead of rewalking the
// whole bottom chain.
//
// A scan is not an atomic snapshot: concurrent inserts and deletes may
// or may not be observed. The cursor makes the visited keys strictly
// increasing even across retries, so every scan is sorted,
// duplicate-free and bounded by [lo, hi].
func (s *SkipList) Range(tid int, lo, hi uint64, fn func(key, val uint64) bool) {
	if hi < lo {
		return
	}
	tr := s.tracker
	cursor := lo // smallest key not yet emitted
retry:
	for {
		prevAddr, _, _ := s.find(tid, cursor, 0)
		sl := 3
		curr := tr.Protect(tid, sl, prevAddr)
		for {
			if ptr.IsNil(curr) {
				return
			}
			if ptr.Marked(curr) {
				continue retry // as in find
			}
			cn := s.arena.Deref(curr)
			sn := 3 + (sl-3+1)%3
			next := tr.Protect(tid, sn, cn.Link(0))
			// Validate: prev still links to curr and neither is marked.
			if prevAddr.Load() != ptr.Clean(curr) {
				continue retry
			}
			if ptr.Marked(next) {
				// curr is logically deleted at level 0: unlink it and
				// clear its level bit (possibly retiring it).
				if !prevAddr.CompareAndSwap(ptr.Clean(curr), ptr.Clean(next)) {
					continue retry
				}
				s.unlinked(tid, curr, 0)
				curr = tr.Protect(tid, sl, prevAddr)
				continue
			}
			if key := cn.Key.Load(); key > hi {
				return
			} else if key >= cursor {
				if !fn(key, cn.Val.Load()) {
					return
				}
				if key == hi {
					return // also guards cursor overflow at key = 2^64-1
				}
				cursor = key + 1
			}
			prevAddr = cn.Link(0)
			sl = sn // cn keeps its hazard while serving as prev
			curr = next
		}
	}
}

// each walks the bottom level at quiescence, visiting unmarked nodes in
// order until fn returns false. Not linearizable; it backs the Len, Keys
// and Height helpers the tests use.
func (s *SkipList) each(fn func(idx ptr.Index, n *arena.Node) bool) {
	for w := s.head[0].Load(); !ptr.IsNil(w); {
		node := s.arena.Deref(ptr.Clean(w))
		next := node.Link(0).Load()
		if !ptr.Marked(next) && !fn(ptr.Idx(w), node) {
			return
		}
		w = next
	}
}

// Len counts the unmarked bottom-level nodes; it is not linearizable and
// exists for tests run at quiescence.
func (s *SkipList) Len() int {
	n := 0
	s.each(func(ptr.Index, *arena.Node) bool { n++; return true })
	return n
}

// Keys returns the keys in order at quiescence (test helper).
func (s *SkipList) Keys() []uint64 {
	var keys []uint64
	s.each(func(_ ptr.Index, n *arena.Node) bool {
		keys = append(keys, n.Key.Load())
		return true
	})
	return keys
}

// Height returns the tower height of the node holding key, or 0 if the
// key is absent; quiescent test helper for the level distribution.
func (s *SkipList) Height(key uint64) int {
	h := 0
	s.each(func(idx ptr.Index, n *arena.Node) bool {
		if n.Key.Load() == key {
			h = s.height(idx, n)
			return false
		}
		return true
	})
	return h
}
