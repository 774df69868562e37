package list

import (
	"bytes"
	"encoding/binary"
	"sync/atomic"

	"hyaline/internal/arena"
	"hyaline/internal/smr"
)

// BytesList is the Harris/Michael sorted list over []byte keys and
// values: the same Core as List, with node payloads held in arena blob
// slabs instead of the Key and Val words directly. Keys are ordered
// bytewise (bytes.Compare).
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
// A node's order word (Right) is its key's order-preserving 8-byte
// prefix (see keyPrefix), so a traversal hop compares prefixes and
// touches the key blob only when they tie.
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

// bytesKey is key's search key: its prefix as the order word, and the
// key itself for a tie.
func bytesKey(key []byte) searchKey {
	return searchKey{word: keyPrefix(key), key: key, isBytes: true}
}

// Insert adds key→val, failing if the key already exists. The payloads
// are copied into arena blobs at first need. The caller must wrap the
// call in Enter/Leave.
func (l *BytesList) Insert(tid int, key, val []byte) bool {
	return l.core.insert(tid, &l.head, bytesKey(key), 0, val)
}

// Delete removes key, returning false if it is absent. The node's blobs
// are reclaimed when the scheme frees the node.
func (l *BytesList) Delete(tid int, key []byte) bool {
	return l.core.delete(tid, &l.head, bytesKey(key))
}

// Get appends the value stored under key to dst and returns it (nil dst
// allocates). The copy happens while the node is still protected, so
// the returned bytes stay valid after Leave — unlike the blob itself,
// which the caller must never retain.
func (l *BytesList) Get(tid int, key []byte, dst []byte) ([]byte, bool) {
	c := &l.core
	_, curr, found := c.find(tid, &l.head, bytesKey(key))
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
func (l *BytesList) Keys() (keys [][]byte) {
	l.core.each(&l.head, func(n *arena.Node) { keys = append(keys, bytes.Clone(l.core.keyBytes(n))) })
	return keys
}
