//go:build !race

package arena

import (
	"sync/atomic"
	"unsafe"
)

// An atomic.Uint64 is exactly its one uint64 word (this line fails to
// compile if that ever changes), so a plain store through its address
// writes that word.
var _ = [1]struct{}{}[unsafe.Sizeof(atomic.Uint64{})-8]

// storeFreed writes a word of a node that Release is freeing: the poison
// and the free-list link. It is a plain store, one MOV, where Store is a
// locked XCHG on amd64. That is safe because nothing but a stale reader
// sees the node before the CAS in FreeChain publishes it, and the CAS
// orders every store before it for the thread that pops the node. A
// stale reader racing the free reads the old word or the new one, as
// with Store: the module builds only for 64-bit targets, where an
// aligned uint64 store is one instruction.
func storeFreed(w *atomic.Uint64, v uint64) { *(*uint64)(unsafe.Pointer(w)) = v }
