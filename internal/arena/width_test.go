package arena_test

import (
	"testing"
	"unsafe"

	"hyaline/internal/arena"
	"hyaline/internal/ds"
	"hyaline/internal/trackers"
)

// TestStructuresPickTheirWidth: the structures whose nodes fit one line
// leave a fresh arena narrow, and the two that use a node's Tail — the
// skiplist's tower, Bonsai's subtree size — widen theirs.
func TestStructuresPickTheirWidth(t *testing.T) {
	if got := unsafe.Sizeof(arena.Node{}); got != 64 {
		t.Fatalf("sizeof(arena.Node) = %d, want 64", got)
	}
	for _, tc := range []struct {
		structure string
		bytes     bool
		stride    uintptr
	}{
		{"list", false, 64},
		{"hashmap", false, 64},
		{"natarajan", false, 64},
		{"blist", true, 64},
		{"skiplist", false, 128},
		{"bonsai", false, 128},
	} {
		a := arena.New(1 << 10)
		tr := trackers.MustNew("epoch", a, trackers.Config{MaxThreads: 1})
		var err error
		if tc.bytes {
			a.EnableBlobs(1 << 12)
			_, err = ds.NewBytes(tc.structure, a, tr, 1)
		} else {
			_, err = ds.New(tc.structure, a, tr, 1)
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.structure, err)
		}
		i := a.Alloc(0)
		gap := uintptr(unsafe.Pointer(a.Node(i+1))) - uintptr(unsafe.Pointer(a.Node(i)))
		if a.Stride() != tc.stride || gap != tc.stride {
			t.Errorf("%s: Stride %d, Node(i+1)-Node(i) = %d, want %d", tc.structure, a.Stride(), gap, tc.stride)
		}
	}
}
