package list

import (
	"bytes"
	"encoding/binary"
	"sync/atomic"

	"hyaline/internal/arena"
	"hyaline/internal/ptr"
	"hyaline/internal/smr"
)

// BytesList is the Harris/Michael sorted list over []byte keys and
// values: the same marking, helping-unlink and retire-once protocol as
// List, with node payloads held in arena blob slabs instead of the Key
// and Val words directly. Keys are ordered bytewise (bytes.Compare).
//
// The reclamation contract is unchanged — and that is the point of the
// structure: a node's Key/Val words hold its BlobRefs, the arena frees
// the blobs when the node itself is freed, so every scheme's node-level
// safety argument covers the variable-size payloads with no
// scheme-side changes at all. Blob content is only read between a
// validated Protect and the end of the bracket, exactly the window in
// which any other field of the node may be read.
//
// Inserts are insert-only (no in-place update), matching Map semantics:
// blobs are immutable from publish to node free, so readers never race
// a payload overwrite.
//
// A node also carries its key's order-preserving 8-byte prefix (see
// keyPrefix) in the Right word, written with Key and Val before the
// node is published and immutable until Free. A traversal hop compares
// prefixes and touches the key blob only when they tie.
type BytesList struct {
	core Core
	head atomic.Uint64
}

// NewBytes creates an empty bytes list managed by tr. The arena must
// have blobs enabled (arena.EnableBlobs); construction panics otherwise
// rather than letting the first insert fail confusingly.
func NewBytes(a *arena.Arena, tr smr.Tracker) *BytesList {
	if !a.BlobsEnabled() {
		panic("list: BytesList requires an arena with blobs enabled")
	}
	return &BytesList{core: NewCore(a, tr)}
}

// keyBytes returns the key payload of a protected node.
func (c *Core) keyBytes(n *arena.Node) []byte {
	return c.Arena.Blob(arena.BlobRef(n.Key.Load()))
}

// keyPrefix is the first 8 bytes of key as a big-endian integer, short
// keys zero-padded on the right. It preserves order one way: a strictly
// smaller prefix implies a bytewise smaller key (at the first differing
// byte either both keys have it, or the smaller one has ended and is a
// proper prefix of the other). Equal prefixes decide nothing — "a" and
// "a\x00" tie, as do keys that first differ at byte 9 — and fall through
// to bytes.Compare.
func keyPrefix(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var p uint64
	for i, b := range key {
		p |= uint64(b) << (56 - 8*i)
	}
	return p
}

// findBytes is find with bytewise key order. The protection protocol is
// identical (three rotating slots, predecessor validation, helping
// unlink). The key comparison reads the node's prefix word and, on a
// tie, its blob content, which is safe exactly when reading cn.Key
// itself is safe — after validation, under the hazard (or bracket) that
// protected curr.
func (c *Core) findBytes(tid int, head *atomic.Uint64, key []byte) (prevAddr *atomic.Uint64, curr ptr.Word, found bool) {
	tr := c.Tracker
	kp := keyPrefix(key)
retry:
	for {
		prevAddr = head
		s := 0
		curr = tr.Protect(tid, s, prevAddr)
		for {
			if ptr.IsNil(curr) {
				return prevAddr, curr, false
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
			if np := cn.Right.Load(); np > kp {
				return prevAddr, curr, false
			} else if np == kp {
				if cmp := bytes.Compare(c.keyBytes(cn), key); cmp >= 0 {
					return prevAddr, curr, cmp == 0
				}
			}
			prevAddr = &cn.Left
			s = (s + 1) % 3 // cn keeps its hazard while serving as prev
			curr = next
		}
	}
}

// Insert adds key→val, failing if the key already exists. The payloads
// are copied into arena blobs at first need; a speculative node that
// loses to a duplicate is deallocated, which returns its blobs too.
// The caller must wrap the call in Enter/Leave.
func (l *BytesList) Insert(tid int, key, val []byte) bool {
	c, tr := &l.core, l.core.Tracker
	newW := ptr.Nil
	for {
		prevAddr, curr, found := c.findBytes(tid, &l.head, key)
		if found {
			if !ptr.IsNil(newW) {
				// Speculative node never published: free it directly
				// (the arena releases its key/val blobs with it).
				tr.Dealloc(tid, ptr.Idx(newW))
			}
			return false
		}
		if ptr.IsNil(newW) {
			idx := tr.Alloc(tid)
			n := c.Arena.Node(idx)
			// Both refs must be stored before any path that can free the
			// node: Free decodes whatever Key/Val hold.
			n.Key.Store(uint64(c.Arena.AllocBlob(key)))
			n.Val.Store(uint64(c.Arena.AllocBlob(val)))
			n.Right.Store(keyPrefix(key))
			newW = ptr.Pack(idx)
		}
		c.Arena.Deref(newW).Left.Store(ptr.Clean(curr))
		if prevAddr.CompareAndSwap(ptr.Clean(curr), newW) {
			return true
		}
	}
}

// Delete removes key, returning false if it is absent. The node's blobs
// are reclaimed when the scheme frees the node.
func (l *BytesList) Delete(tid int, key []byte) bool {
	c, tr := &l.core, l.core.Tracker
	for {
		prevAddr, curr, found := c.findBytes(tid, &l.head, key)
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
			c.findBytes(tid, &l.head, key)
		}
		return true
	}
}

// Get appends the value stored under key to dst and returns it (nil dst
// allocates). The copy happens while the node is still protected, so
// the returned bytes stay valid after Leave — unlike the blob itself,
// which the caller must never retain.
func (l *BytesList) Get(tid int, key []byte, dst []byte) ([]byte, bool) {
	c := &l.core
	_, curr, found := c.findBytes(tid, &l.head, key)
	if !found {
		return dst, false
	}
	val := c.Arena.Blob(arena.BlobRef(c.Arena.Deref(curr).Val.Load()))
	return append(dst, val...), true
}

// Len counts the unmarked nodes; exact at quiescence only.
func (l *BytesList) Len() int { return l.core.Len(&l.head) }

// Keys returns the keys in order at quiescence (test helper). The
// returned slices are copies.
func (l *BytesList) Keys() [][]byte {
	var keys [][]byte
	for w := l.head.Load(); !ptr.IsNil(w); {
		node := l.core.Arena.Deref(ptr.Clean(w))
		next := node.Left.Load()
		if !ptr.Marked(next) {
			keys = append(keys, bytes.Clone(l.core.keyBytes(node)))
		}
		w = next
	}
	return keys
}
