//go:build race

package arena

import (
	"runtime"
	"testing"
)

// TestSlabsOnHeapUnderRace: a race build keeps every slab on the Go
// heap, where the detector sees the arena's atomics, so nothing is ever
// mapped.
func TestSlabsOnHeapUnderRace(t *testing.T) {
	a := New(1 << 16)
	a.EnableBlobs(1 << 16)
	a.Free(0, a.Alloc(0))
	if m := Mapped(); m != 0 {
		t.Fatalf("Mapped = %d bytes in a race build, want 0 (heap slabs)", m)
	}
	runtime.KeepAlive(a)
}
