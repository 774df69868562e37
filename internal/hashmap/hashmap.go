// Package hashmap implements Michael's lock-free hash map [26]: a fixed
// array of buckets, each an independent Harris–Michael sorted list — the
// paper's highest-throughput benchmark (Figures 8c/9c, 11c/12c), whose
// very short operations stress the reclamation schemes hardest.
//
// Geometry. An operation should cost one cache miss for the bucket head
// and, on average, less than one for a chain node, so that what is left
// of its time is the reclamation scheme the figures compare:
//
//   - A head is one 8-byte word and heads are not padded: eight share a
//     cache line. Padding each head to its own line buys nothing at this
//     table size — with 16 384 lines of heads and uniformly hashed keys,
//     two threads meet on one line about once in 16 384 operations — and
//     it costs every operation: 64 bytes of table per chain keep a useful
//     number of chains out of the L2 cache. BenchmarkHeads measures the
//     case padding exists for, two goroutines confined to one line of
//     heads against the same two on heads a line apart: 524 against
//     447 ns per insert/delete pair on the 2-core box, +17 % when every
//     operation of both threads lands on that one line.
//   - The bucket index is the top log2(buckets) bits of the Fibonacci
//     product, so every bit of the key reaches it; a mask over middle
//     bits of the product drops the key bits above them (keys k<<48 used
//     to collapse into a few hundred buckets). A sharded store routes on
//     fmix64(key) % shards, an unrelated mix, so the keys one shard
//     receives still spread over all of that shard's buckets.
//   - An entry is one 64-byte arena node, one cache line: the map's
//     nodes use only the words of arena.Node, so the map leaves its arena
//     narrow, and neither an operation nor a free touches a second line.
//     With the 1 MiB of heads that is 64 bytes per entry plus about 21
//     bytes of table per entry at the benchmark's 50 000 entries.
//
// Adjacent heads are only a performance question: each chain is its own
// list and no operation reads two heads (TestAdjacentHeads runs the
// conformance churn confined to one cache line of heads).
package hashmap

import (
	"math/bits"
	"sync/atomic"

	"hyaline/internal/arena"
	"hyaline/internal/list"
	"hyaline/internal/smr"
)

// DefaultBuckets is 2^17 heads: 1 MiB of table, what 2^14 padded heads
// occupied. It is measured, not guessed: on the 2-core box that runs the
// repository benchmark, serve_pipe (50 000 live keys of 100 000) read
// 1.97 M ops/s at 2^14, 2.07 M at 2^15, 2.14 M at 2^16, 2.17 M at 2^17
// and 2.13 M at 2^18 (+1 MB resident), against 1.91 M for 2^14 padded
// heads and 2.03 M (+7 MB resident) for 2^17 padded ones. It is a
// constant because one value serves every caller: load factor 0.38 at the
// benchmark's 50 000 entries, 8 at a full default arena (1<<20 nodes; it
// was 64). Every shard of a sharded store allocates its nodes from the
// store's one arena; only the table is per shard, 1 MiB each.
//
// The paper's framework ran the same 50 000 entries at a load factor
// near 1.7; figures 8c/9c/11c/12c run here at 0.4, so a hashmap
// operation walks less and reclamation's share of it is larger than in
// the paper's plots.
const DefaultBuckets = 1 << 17

// Map is the lock-free hash map.
type Map struct {
	core    list.Core
	buckets []atomic.Uint64
	shift   uint // 64 - log2(len(buckets))
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
		buckets: make([]atomic.Uint64, buckets),
		shift:   uint(64 - bits.TrailingZeros(uint(buckets))),
	}
}

// bucket hashes key to its chain head: Fibonacci hashing, the top bits
// of key × 2^64/φ. One bucket gives shift 64, and Go defines x >> 64 as 0.
func (m *Map) bucket(key uint64) *atomic.Uint64 {
	return &m.buckets[(key*0x9E3779B97F4A7C15)>>m.shift]
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

// Len counts live entries; it is exact only at quiescence. It loads
// every head, so it costs the table as well as the entries: about 1 ms
// at 50 000 entries (BenchmarkLen; 0.66 ms over 2^14 heads).
func (m *Map) Len() int {
	n := 0
	for i := range m.buckets {
		n += m.core.Len(&m.buckets[i])
	}
	return n
}
