//go:build !race

package ptr

import (
	"sync/atomic"
	"unsafe"
)

// An atomic.Uint64 is exactly its one uint64 word (this line fails to
// compile if that ever changes), so a plain store through its address
// writes that word.
var _ = [1]struct{}{}[unsafe.Sizeof(atomic.Uint64{})-8]

// StoreOwned writes v to *w with a plain store, one MOV, where Store is a
// locked XCHG on amd64. The caller owns the word: no other goroutine
// writes it meanwhile, and a reader that must see v is ordered after
// this store by a later synchronizing operation of the owner — the CAS
// that publishes a node, or the handoff of a leased tid. Three kinds of
// word qualify:
//
//   - a node being freed, whose poison and free-list link the arena's
//     FreeChain CAS publishes;
//   - a node not yet published: an allocation's payload and birth era,
//     a retired node's batch header, all published by a structure's or
//     a tracker's CAS;
//   - a per-tid word that only the tid's holder writes, such as the
//     reclamation counters.
//
// A reader that races the store unordered — a stale traversal reading a
// node that is being freed, or a Stats snapshot — sees the old word or
// the new one, as it would with Store: the module builds only for 64-bit
// targets, where an aligned uint64 store is one instruction.
func StoreOwned(w *atomic.Uint64, v uint64) { *(*uint64)(unsafe.Pointer(w)) = v }
