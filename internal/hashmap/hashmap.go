// Package hashmap implements Michael's lock-free hash map [26]: a fixed
// array of buckets, each an independent Harris–Michael sorted list — the
// paper's highest-throughput benchmark (Figures 8c/9c, 11c/12c), whose
// very short operations stress the reclamation schemes hardest.
package hashmap

import (
	"sync/atomic"

	"hyaline/internal/arena"
	"hyaline/internal/list"
	"hyaline/internal/smr"
)

// DefaultBuckets mirrors the load factor of the paper's test framework:
// ~50k live elements spread over 2^14 buckets keeps chains short.
const DefaultBuckets = 1 << 14

type paddedHead struct {
	head atomic.Uint64
	_    [7]uint64
}

// Map is the lock-free hash map.
type Map struct {
	core    list.Core
	buckets []paddedHead
	mask    uint64
}

// New creates a map with the given power-of-two bucket count (0 uses
// DefaultBuckets).
func New(a *arena.Arena, tr smr.Tracker, buckets int) *Map {
	if buckets <= 0 {
		buckets = DefaultBuckets
	}
	if buckets&(buckets-1) != 0 {
		panic("hashmap: bucket count must be a power of two")
	}
	return &Map{
		core:    list.NewCore(a, tr),
		buckets: make([]paddedHead, buckets),
		mask:    uint64(buckets - 1),
	}
}

// bucket hashes key to its chain head (Fibonacci hashing).
func (m *Map) bucket(key uint64) *atomic.Uint64 {
	h := key * 0x9E3779B97F4A7C15
	return &m.buckets[(h>>40)&m.mask].head
}

// Insert adds key→val, returning false if the key already exists.
func (m *Map) Insert(tid int, key, val uint64) bool {
	return m.core.Insert(tid, m.bucket(key), key, val)
}

// Delete removes key, returning false if it is absent.
func (m *Map) Delete(tid int, key uint64) bool {
	return m.core.Delete(tid, m.bucket(key), key)
}

// Get returns the value stored under key.
func (m *Map) Get(tid int, key uint64) (uint64, bool) {
	return m.core.Get(tid, m.bucket(key), key)
}

// Len counts live entries at quiescence (test helper).
func (m *Map) Len() int {
	n := 0
	for i := range m.buckets {
		n += m.core.Len(&m.buckets[i].head)
	}
	return n
}
