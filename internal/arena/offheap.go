// Off-heap slabs: the node pool and the blob heap are private anonymous
// mappings, one each, not Go objects. A Go-heap slab would be re-zeroed
// in full whenever make reuses a span, and would set the GC goal by its
// size rather than by the program's garbage. The package doc states where
// the slabs fall back to the heap and the lifetime rule for callers.

package arena

import (
	"math"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// mapped is the number of slab bytes currently mapped outside the Go
// heap, summed over every arena in the process.
var mapped atomic.Int64

// slabsMade counts the slabs newSlab has returned, mapped or made, over
// the process's life; tests read it to count a construction's slabs.
var slabsMade atomic.Int64

// Mapped returns the slab bytes currently mapped outside the Go heap by
// the process's arenas. A dropped arena's slabs leave the count once the
// garbage collector has found the arena unreachable and its cleanup has
// run. It stays 0 where slabs fall back to the Go heap (see newSlab).
func Mapped() int64 { return mapped.Load() }

// slabElem lists the element types a slab may hold. None contains a Go
// pointer: the garbage collector never scans a mapped slab, so a pointer
// stored there would not keep its referent alive.
type slabElem interface {
	Node | atomic.Uint64
}

// newSlab returns n zeroed elements owned by owner. It maps them outside
// the Go heap and ties the mapping's lifetime to owner; it falls back to
// make when the build has no mapping backend (see mapAnon) or the map
// fails.
func newSlab[T slabElem](owner *Arena, n int) []T {
	slabsMade.Add(1)
	var zero T
	elem := int(unsafe.Sizeof(zero))
	if n > 0 && n <= math.MaxInt/elem {
		if b, err := mapAnon(n * elem); err == nil {
			mapped.Add(int64(len(b)))
			// The cleanup is handed the mapping, never the arena: an
			// argument that reached owner would keep it alive for good.
			runtime.AddCleanup(owner, unmapSlab, b)
			return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n)
		}
	}
	return make([]T, n)
}

// unmapSlab releases one slab of an unreachable arena.
func unmapSlab(b []byte) {
	if err := unmapAnon(b); err != nil {
		panic("arena: unmapping a slab: " + err.Error())
	}
	mapped.Add(-int64(len(b)))
}
