// Package ds is the registry of the benchmark data structures: the four
// from the paper's figures, keyed by the names used there, plus the
// lock-free skiplist workload this reproduction adds on top.
package ds

import (
	"fmt"
	"sort"

	"hyaline/internal/arena"
	"hyaline/internal/bonsai"
	"hyaline/internal/hashmap"
	"hyaline/internal/list"
	"hyaline/internal/natarajan"
	"hyaline/internal/skiplist"
	"hyaline/internal/smr"
)

// Map is the common shape of all benchmark structures.
type Map interface {
	// Insert adds key→val, failing if the key exists.
	Insert(tid int, key, val uint64) bool
	// Delete removes key, failing if it is absent.
	Delete(tid int, key uint64) bool
	// Get returns the value under key.
	Get(tid int, key uint64) (uint64, bool)
	// Len counts entries at quiescence.
	Len() int
}

// Ranger is the optional range-scan extension implemented by the ordered
// structures (see SupportsRange). Range visits every key in [lo, hi] in
// ascending order, calling fn(key, val) for each until fn returns false
// or the range is exhausted. The caller must wrap the call in
// Enter/Leave, like any other operation.
//
// A scan is lock-free and reclamation-safe but NOT an atomic snapshot:
// keys inserted or deleted while the scan is in flight may or may not be
// observed. What is guaranteed is that the visited keys are strictly
// increasing (hence duplicate-free), bounded by [lo, hi], and that a key
// present for the whole duration of the scan is observed.
type Ranger interface {
	Map
	Range(tid int, lo, hi uint64, fn func(key, val uint64) bool)
}

// entry is one registered structure.
type entry struct {
	// build constructs the structure over a and tr for maxThreads.
	build func(a *arena.Arena, tr smr.Tracker, maxThreads int) Map
	// ranged marks structures whose Map also implements Ranger.
	ranged bool
	// excluded lists reclamation schemes the structure cannot run under.
	excluded map[string]bool
}

// registry holds every benchmark structure; Names, Supports,
// SupportsRange and New all derive from it, so adding a structure here
// is the single step that registers it everywhere.
var registry = map[string]entry{
	"list": {
		build:  func(a *arena.Arena, tr smr.Tracker, _ int) Map { return list.New(a, tr) },
		ranged: true,
	},
	"hashmap": {
		build: func(a *arena.Arena, tr smr.Tracker, _ int) Map { return hashmap.New(a, tr, 0) },
	},
	"bonsai": {
		build: func(a *arena.Arena, tr smr.Tracker, maxThreads int) Map { return bonsai.New(a, tr, maxThreads) },
		// As in the paper, the Bonsai tree is not implemented for the
		// pointer-based schemes (HP, HE).
		excluded: map[string]bool{"hp": true, "he": true},
	},
	"natarajan": {
		build:  func(a *arena.Arena, tr smr.Tracker, _ int) Map { return natarajan.New(a, tr) },
		ranged: true,
	},
	"skiplist": {
		build:  func(a *arena.Arena, tr smr.Tracker, maxThreads int) Map { return skiplist.New(a, tr, maxThreads) },
		ranged: true,
	},
}

// BytesMap is the common shape of the []byte-keyed structures. The
// semantics mirror Map — insert-only Insert, no in-place update — with
// payload ownership rules: key and val are copied into arena blobs on
// Insert, and Get copies the value out (appending to dst) while the
// node is protected, so no returned slice ever aliases reclaimable
// memory.
type BytesMap interface {
	// Insert adds key→val, failing if the key exists.
	Insert(tid int, key, val []byte) bool
	// Delete removes key, failing if it is absent.
	Delete(tid int, key []byte) bool
	// Get appends the value under key to dst and returns it.
	Get(tid int, key []byte, dst []byte) ([]byte, bool)
	// Len counts entries at quiescence.
	Len() int
}

// bytesEntry is one registered bytes structure. The build func requires
// an arena with blobs enabled (see arena.EnableBlobs).
type bytesEntry struct {
	build    func(a *arena.Arena, tr smr.Tracker, maxThreads int) BytesMap
	excluded map[string]bool
}

// bytesRegistry holds the []byte-payload structures, separate from the
// uint64 registry because the two families cannot share an arena (a
// blob-enabled arena interprets every freed node's Key/Val as BlobRefs).
var bytesRegistry = map[string]bytesEntry{
	"blist": {
		build: func(a *arena.Arena, tr smr.Tracker, _ int) BytesMap { return list.NewBytes(a, tr) },
	},
}

// BytesNames returns the registered bytes structure names, sorted.
func BytesNames() []string {
	names := make([]string, 0, len(bytesRegistry))
	for name := range bytesRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SupportsBytes reports whether the named bytes structure runs under the
// named scheme (unknown structures report true, as in Supports).
func SupportsBytes(structure, scheme string) bool {
	return !bytesRegistry[structure].excluded[scheme]
}

// ValidateBytes returns a descriptive error when the named bytes
// structure is unknown or cannot run under the named scheme, nil
// otherwise. Unlike SupportsBytes it rejects unknown structures, so a
// constructor can refuse a bad combination before committing any
// resources to it.
func ValidateBytes(structure, scheme string) error {
	e, ok := bytesRegistry[structure]
	if !ok {
		return fmt.Errorf("ds: unknown bytes structure %q (known: %v)", structure, BytesNames())
	}
	if e.excluded[scheme] {
		return fmt.Errorf("ds: bytes structure %q does not support scheme %q", structure, scheme)
	}
	return nil
}

// NewBytes constructs the named bytes structure over a and tr. The arena
// must have blobs enabled.
func NewBytes(structure string, a *arena.Arena, tr smr.Tracker, maxThreads int) (BytesMap, error) {
	e, ok := bytesRegistry[structure]
	if !ok {
		return nil, fmt.Errorf("ds: unknown bytes structure %q (known: %v)", structure, BytesNames())
	}
	return e.build(a, tr, maxThreads), nil
}

// Names returns the registered structure names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Supports reports whether the named structure runs under the named
// scheme. Unknown structures report true so that the descriptive
// "unknown structure" error surfaces from New instead.
func Supports(structure, scheme string) bool {
	return !registry[structure].excluded[scheme]
}

// Validate is ValidateBytes for the uint64 structures: a descriptive
// error for an unknown structure or an excluded structure×scheme pair,
// before a constructor commits any resources.
func Validate(structure, scheme string) error {
	e, ok := registry[structure]
	if !ok {
		return fmt.Errorf("ds: unknown structure %q (known: %v)", structure, Names())
	}
	if e.excluded[scheme] {
		return fmt.Errorf("ds: structure %q does not support scheme %q", structure, scheme)
	}
	return nil
}

// SupportsRange reports whether the named structure implements Ranger.
// The unordered hashmap and the snapshot-replacing Bonsai tree do not.
func SupportsRange(structure string) bool {
	return registry[structure].ranged
}

// New constructs the named structure over a and tr for maxThreads.
func New(structure string, a *arena.Arena, tr smr.Tracker, maxThreads int) (Map, error) {
	e, ok := registry[structure]
	if !ok {
		return nil, fmt.Errorf("ds: unknown structure %q (known: %v)", structure, Names())
	}
	return e.build(a, tr, maxThreads), nil
}
