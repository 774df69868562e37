// Package hyaline is a Go reproduction of "Hyaline: Fast and Transparent
// Lock-Free Memory Reclamation" (Nikolaev & Ravindran, PODC 2019,
// arXiv:1905.07903): the four Hyaline safe-memory-reclamation variants,
// every baseline scheme the paper evaluates against (epoch-based
// reclamation, hazard pointers, hazard eras, interval-based reclamation,
// and a leaky no-op), and the four lock-free data structures of its
// evaluation plus a lock-free skiplist workload. Nothing that measures
// lives here: internal/bench (behind cmd/hyalinebench) regenerates the
// paper's tables and figures and imports this package, never the
// reverse, and the repository's benchmark is the module under
// benchmark/.
//
// Go's garbage collector would make "reclamation" a no-op, so the
// package manages a simulated unmanaged heap (Arena): nodes are
// addressed by packed 48-bit indices, freed nodes are recycled for
// unrelated allocations, and unsafe reclamation manifests as real
// use-after-free corruption that the test suite detects via poisoning
// and incarnation stamps.
//
// # Quick start
//
// KV is the goroutine-transparent front-end — call it from any number
// of goroutines, no thread registration, no tid plumbing:
//
//	kv, err := hyaline.NewKV("hashmap", "hyaline", hyaline.KVOptions{})
//	if err != nil { ... }
//
//	// From any goroutine:
//	kv.Insert(key, value)
//	v, ok := kv.Get(key)
//	kv.Delete(key)
//
// Internally each call leases a dense thread id from a lock-free
// session pool for exactly the duration of the operation (a per-P
// cache keeps the hot path allocation- and contention-free), so any
// number of goroutines share KVOptions.MaxThreads tids.
//
// # The store
//
// There is one store engine (store.go): one arena (node pool, plus the
// blob heap for bytes keys) and a slice of shards — each its own
// structure, tracker and session pool, all allocating from that arena —
// that owns construction, the lease/Enter/Trim/Leave bracket, batch
// routing and every aggregate. Two thin typed facades sit on it, one per key
// family: KV (uint64 keys and values) and KVBytes ([]byte keys and
// values, payloads in the arena's blob slabs). Sharding is a
// constructor argument, not a type: NewKV(s, sc, o) is
// NewShardedKV(s, sc, 1, o), likewise NewKVBytes, and ShardedKV /
// ShardedKVBytes are aliases of KV / KVBytes.
//
// # Low-level API
//
// The explicit-tid surface remains for callers that manage their own
// worker identity — internal/bench pins tids to workers to reproduce
// the paper's figures:
//
//	a := hyaline.NewArena(1 << 20)
//	tr, err := hyaline.New("hyaline", a, hyaline.Options{MaxThreads: 8})
//	if err != nil { ... }
//	m, err := hyaline.NewMap("hashmap", a, tr, 8)
//	if err != nil { ... }
//
//	// Worker with thread id tid ∈ [0, 8):
//	tr.Enter(tid)
//	m.Insert(tid, key, value)
//	tr.Leave(tid) // off the hook: nothing left to check (§2.4)
//
// Scheme names follow the paper's figures: "hyaline", "hyaline-1",
// "hyaline-s", "hyaline-1s", "epoch", "hp", "he", "ibr", "leaky".
// Structure names: "list", "hashmap", "bonsai", "natarajan",
// "skiplist"; the bytes family has "blist".
package hyaline

import (
	"hyaline/internal/arena"
	"hyaline/internal/ds"
	"hyaline/internal/smr"
	"hyaline/internal/trackers"
)

type (
	// Tracker is a safe memory reclamation scheme (see smr.Tracker).
	Tracker = smr.Tracker
	// Trimmer is a Tracker supporting the §3.3 trim operation.
	Trimmer = smr.Trimmer
	// Flusher is a Tracker that can drain pending reclamation.
	Flusher = smr.Flusher
	// Stats are cumulative reclamation counters.
	Stats = smr.Stats
	// Properties is a scheme's qualitative Table 1 row.
	Properties = smr.Properties
	// Arena is the simulated unmanaged heap all schemes manage.
	Arena = arena.Arena
	// Node is one block of the arena.
	Node = arena.Node
	// Map is the common interface of the benchmark structures.
	Map = ds.Map
	// Ranger is a Map that additionally supports ordered range scans
	// (the ordered structures: list, natarajan, skiplist).
	Ranger = ds.Ranger
	// BytesMap is the common interface of the []byte-payload structures
	// (KVBytes is the transparent front-end over one).
	BytesMap = ds.BytesMap
	// Options carries per-scheme tuning; zero values pick defaults.
	Options = trackers.Config
)

// NewArena allocates a node pool with the given capacity. The pool is
// mapped outside the Go heap, so construction is O(1) in capacity and
// the pool is virtual until touched: oversized pools are cheap. It is
// unmapped once the arena is unreachable; a *Node is valid only while
// the arena, or a tracker or map built on it, is.
func NewArena(capacity int) *Arena { return arena.New(capacity) }

// New constructs the named reclamation scheme over a.
func New(scheme string, a *Arena, opts Options) (Tracker, error) {
	return trackers.New(scheme, a, opts)
}

// NewMap constructs the named lock-free structure over a and tr for up
// to maxThreads concurrent threads.
func NewMap(structure string, a *Arena, tr Tracker, maxThreads int) (Map, error) {
	return ds.New(structure, a, tr, maxThreads)
}

// Schemes lists every reclamation scheme, in the paper's terminology.
func Schemes() []string { return trackers.Names() }

// Structures lists the benchmark data structures.
func Structures() []string { return ds.Names() }

// BytesStructures lists the []byte-payload data structures.
func BytesStructures() []string { return ds.BytesNames() }

// SupportsBytes reports whether the bytes structure runs under scheme.
func SupportsBytes(structure, scheme string) bool { return ds.SupportsBytes(structure, scheme) }

// Supports reports whether structure runs under scheme (the Bonsai tree
// excludes HP and HE, as in the paper).
func Supports(structure, scheme string) bool { return ds.Supports(structure, scheme) }

// SupportsRange reports whether structure implements Ranger: lock-free
// ordered range scans over [lo, hi]. Scans are not atomic snapshots;
// they guarantee sorted, duplicate-free, bounded output.
func SupportsRange(structure string) bool { return ds.SupportsRange(structure) }
