// Package list implements the sorted lock-free linked list of Harris
// [20] as refined by Michael [26] for compatibility with safe memory
// reclamation — the paper's first benchmark (Figures 8a/9a, 11a/12a).
//
// Nodes are ordered by key; deletion first marks the victim's next link
// (logical delete) and then unlinks it (physical delete). Traversals
// help unlink marked nodes, and only the thread whose compare-and-swap
// performs the unlink retires the node — exactly once.
//
// One Core runs the algorithm for both key families, on an explicit head
// word so that the Michael hash map (package hashmap) reuses it per
// bucket. Every node carries its order word in Node.Right: the key
// itself in a uint64 list, the key's 8-byte prefix in a BytesList. A hop
// compares that word and reads a bytes key's blob only on a tie.
package list

import (
	"bytes"
	"sync/atomic"

	"hyaline/internal/arena"
	"hyaline/internal/ptr"
	"hyaline/internal/smr"
)

// Core holds the arena and reclamation scheme shared by all buckets or
// lists built on it.
type Core struct {
	Arena   *arena.Arena
	Tracker smr.Deref
}

// NewCore binds the list algorithm to an arena and a scheme.
func NewCore(a *arena.Arena, tr smr.Tracker) Core {
	return Core{Arena: a, Tracker: smr.NewDeref(tr)}
}

// List is a standalone sorted linked list.
type List struct {
	core Core
	head atomic.Uint64
}

// New creates an empty list managed by tr.
func New(a *arena.Arena, tr smr.Tracker) *List {
	return &List{core: NewCore(a, tr)}
}

// Insert adds key→val; it returns false if the key already exists.
// The caller must wrap the call in Enter/Leave (the harness does).
func (l *List) Insert(tid int, key, val uint64) bool {
	return l.core.Insert(tid, &l.head, key, val)
}

// Delete removes key, returning false if it is absent.
func (l *List) Delete(tid int, key uint64) bool {
	return l.core.Delete(tid, &l.head, key)
}

// Get returns the value stored under key.
func (l *List) Get(tid int, key uint64) (uint64, bool) {
	return l.core.Get(tid, &l.head, key)
}

// A searchKey is what find orders nodes by: word is compared with each
// node's order word, and for a bytes key (isBytes) key is the full key
// that breaks a tie. The family is its own field so that an empty bytes
// key, nil or not, is never taken for the uint64 key 0.
type searchKey struct {
	word    uint64
	key     []byte
	isBytes bool
}

// find locates the first node ordered at or after k. It returns the
// address of the link pointing at that node (prevAddr), the protected
// word for the node (curr, possibly nil), and whether the key matched.
// Marked nodes encountered on the way are unlinked and retired
// (Michael's helping).
//
// Protection protocol: three rotating slots. When advancing, the node
// that owned slot s becomes prev and stays protected; its successor,
// protected at slot s+1, becomes curr. The validation read of *prevAddr
// doubles as hazard validation and as the unmarked-predecessor check.
// A marked curr came out of a deleted prev's frozen link and may already
// be free, so the walk restarts before dereferencing it; the validation
// would reject it anyway. A bytes key's blob is read only after the
// validation, under the protection that covers every other field.
func (c *Core) find(tid int, head *atomic.Uint64, k searchKey) (prevAddr *atomic.Uint64, curr ptr.Word, found bool) {
	tr := c.Tracker
retry:
	for {
		prevAddr = head
		s := 0
		curr = tr.Protect(tid, s, prevAddr)
		for {
			if ptr.IsNil(curr) {
				return prevAddr, curr, false
			}
			if ptr.Marked(curr) {
				continue retry
			}
			cn := c.Arena.Deref(curr)
			next := tr.Protect(tid, (s+1)%3, &cn.Left)
			// Validate: prev still links to curr and neither is marked.
			if prevAddr.Load() != ptr.Clean(curr) {
				continue retry
			}
			if ptr.Marked(next) {
				// curr is logically deleted: unlink and retire it.
				if !prevAddr.CompareAndSwap(ptr.Clean(curr), ptr.Clean(next)) {
					continue retry
				}
				tr.Retire(tid, ptr.Idx(curr))
				curr = tr.Protect(tid, s, prevAddr)
				continue
			}
			if w := cn.Right.Load(); w > k.word {
				return prevAddr, curr, false
			} else if w == k.word {
				if !k.isBytes {
					return prevAddr, curr, true
				}
				if cmp := bytes.Compare(c.keyBytes(cn), k.key); cmp >= 0 {
					return prevAddr, curr, cmp == 0
				}
			}
			prevAddr = &cn.Left
			s = (s + 1) % 3 // cn keeps its hazard while serving as prev
			curr = next
		}
	}
}

// insert links a node for k unless find matches it. The node is
// allocated at first need and carries val, or for a bytes key blobs of
// k.key and valBytes; one that loses to a duplicate is deallocated,
// which returns its blobs too.
func (c *Core) insert(tid int, head *atomic.Uint64, k searchKey, val uint64, valBytes []byte) bool {
	tr := c.Tracker
	newW := ptr.Nil
	for {
		prevAddr, curr, found := c.find(tid, head, k)
		if found {
			if !ptr.IsNil(newW) {
				// Speculative node never published: free it directly.
				tr.Dealloc(tid, ptr.Idx(newW))
			}
			return false
		}
		if ptr.IsNil(newW) {
			idx := tr.Alloc(tid)
			n := c.Arena.Node(idx)
			kw := k.word
			if k.isBytes {
				// Both refs are stored before any path that can free the
				// node: Free decodes whatever Key and Val hold.
				kw, val = uint64(c.Arena.AllocBlob(k.key)), uint64(c.Arena.AllocBlob(valBytes))
			}
			// The node is ours until the CAS below publishes it, and the
			// CAS orders these stores before it: plain stores.
			ptr.StoreOwned(&n.Key, kw)
			ptr.StoreOwned(&n.Val, val)
			ptr.StoreOwned(&n.Right, k.word)
			newW = ptr.Pack(idx)
		}
		ptr.StoreOwned(&c.Arena.Deref(newW).Left, ptr.Clean(curr))
		if prevAddr.CompareAndSwap(ptr.Clean(curr), newW) {
			return true
		}
	}
}

// delete is the two-step logical+physical delete.
func (c *Core) delete(tid int, head *atomic.Uint64, k searchKey) bool {
	tr := c.Tracker
	for {
		prevAddr, curr, found := c.find(tid, head, k)
		if !found {
			return false
		}
		cn := c.Arena.Deref(curr)
		next := cn.Left.Load()
		if ptr.Marked(next) {
			continue // another deleter got here first; help via find
		}
		if !cn.Left.CompareAndSwap(next, ptr.WithMark(next)) {
			continue // link changed under us; retry
		}
		// Logically deleted. Try the physical unlink; on failure, find
		// will help and retire on our behalf.
		if prevAddr.CompareAndSwap(ptr.Clean(curr), ptr.Clean(next)) {
			tr.Retire(tid, ptr.Idx(curr))
		} else {
			c.find(tid, head, k)
		}
		return true
	}
}

// Insert adds key→val against an explicit head word; it returns false
// if the key already exists.
func (c *Core) Insert(tid int, head *atomic.Uint64, key, val uint64) bool {
	return c.insert(tid, head, searchKey{word: key}, val, nil)
}

// Delete removes key against an explicit head word.
func (c *Core) Delete(tid int, head *atomic.Uint64, key uint64) bool {
	return c.delete(tid, head, searchKey{word: key})
}

// Get looks the key up. It shares find, so it also helps unlink marked
// nodes, as in Michael's original algorithm.
func (c *Core) Get(tid int, head *atomic.Uint64, key uint64) (uint64, bool) {
	_, curr, found := c.find(tid, head, searchKey{word: key})
	if !found {
		return 0, false
	}
	return c.Arena.Deref(curr).Val.Load(), true
}

// Range visits every key in [lo, hi] in ascending order against an
// explicit head word, calling fn for each until it returns false. The
// traversal follows the find protocol — three rotating hazard slots,
// no dereference through a marked link, validation through the
// predecessor link, helping unlink marked nodes —
// so it is lock-free and reclamation-safe under every scheme.
//
// A scan is not an atomic snapshot: concurrent inserts and deletes may
// or may not be observed. The cursor makes the visited keys strictly
// increasing even across retries (a failed validation restarts the walk
// from head, but only keys not yet emitted are reported), so every scan
// is sorted, duplicate-free and bounded by [lo, hi].
func (c *Core) Range(tid int, head *atomic.Uint64, lo, hi uint64, fn func(key, val uint64) bool) {
	if hi < lo {
		return
	}
	tr := c.Tracker
	cursor := lo // smallest key not yet emitted
retry:
	for {
		prevAddr := head
		s := 0
		curr := tr.Protect(tid, s, prevAddr)
		for {
			if ptr.IsNil(curr) {
				return
			}
			if ptr.Marked(curr) {
				continue retry // out of a deleted prev: see find
			}
			cn := c.Arena.Deref(curr)
			next := tr.Protect(tid, (s+1)%3, &cn.Left)
			// Validate: prev still links to curr and neither is marked.
			if prevAddr.Load() != ptr.Clean(curr) {
				continue retry
			}
			if ptr.Marked(next) {
				// curr is logically deleted: unlink and retire it.
				if !prevAddr.CompareAndSwap(ptr.Clean(curr), ptr.Clean(next)) {
					continue retry
				}
				tr.Retire(tid, ptr.Idx(curr))
				curr = tr.Protect(tid, s, prevAddr)
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
			prevAddr = &cn.Left
			s = (s + 1) % 3 // cn keeps its hazard while serving as prev
			curr = next
		}
	}
}

// Range visits every key in [lo, hi] in ascending order (see Core.Range
// for the traversal guarantees).
func (l *List) Range(tid int, lo, hi uint64, fn func(key, val uint64) bool) {
	l.core.Range(tid, &l.head, lo, hi, fn)
}

// Len counts the unmarked nodes; it is not linearizable and exists for
// tests run at quiescence. It is its own loop, not each's callback: the
// hash map calls it once per bucket.
func (c *Core) Len(head *atomic.Uint64) int {
	n := 0
	for w := head.Load(); !ptr.IsNil(w); {
		node := c.Arena.Deref(ptr.Clean(w))
		next := node.Left.Load()
		if !ptr.Marked(next) {
			n++
		}
		w = next
	}
	return n
}

// each calls fn on every unmarked node in order at quiescence (the Keys
// helpers' walk).
func (c *Core) each(head *atomic.Uint64, fn func(n *arena.Node)) {
	for w := head.Load(); !ptr.IsNil(w); {
		node := c.Arena.Deref(ptr.Clean(w))
		next := node.Left.Load()
		if !ptr.Marked(next) {
			fn(node)
		}
		w = next
	}
}

// Len counts the list's unmarked nodes at quiescence.
func (l *List) Len() int { return l.core.Len(&l.head) }

// Keys returns the keys in order at quiescence (test helper).
func (l *List) Keys() (keys []uint64) {
	l.core.each(&l.head, func(n *arena.Node) { keys = append(keys, n.Key.Load()) })
	return keys
}
