//go:build (linux || darwin || freebsd) && !race

package arena

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestSlabsOffHeap: a default-sized node pool and a bytes store's blob
// classes are mapped, not Go objects. Building them leaves the Go heap
// all but untouched and moves Mapped by exactly the three slab arrays.
func TestSlabsOffHeap(t *testing.T) {
	// Every attempt's arena stays reachable until the test ends: dropped,
	// its unmap would be queued by the next attempt's GC and could land
	// inside that attempt's measurement, and so on down the retries.
	var built []*Arena
	defer func() { runtime.KeepAlive(built) }()
	for attempt := 1; ; attempt++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		m0 := Mapped()
		a := New(1 << 20)
		a.EnableBlobs(1 << 24)
		m1 := Mapped()
		runtime.ReadMemStats(&after)
		built = append(built, a)

		if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
			t.Fatalf("HeapAlloc grew by %d bytes building the arena, want < 1 MiB", grew)
		}
		want := int64(len(a.nodes)) * int64(unsafe.Sizeof(Node{}))
		for c := range a.blobs.classes {
			cl := &a.blobs.classes[c]
			want += int64(len(cl.data)) + int64(len(cl.link))*int64(unsafe.Sizeof(cl.link[0]))
		}
		runtime.KeepAlive(a)
		if m1-m0 == want {
			return
		}
		// An arena dropped by an earlier test may be unmapped by its
		// cleanup while this one is built; that only ever lowers the
		// count, and not on every attempt.
		if attempt == 3 {
			t.Fatalf("Mapped grew by %d bytes, want the node, data and link bytes: %d", m1-m0, want)
		}
	}
}
