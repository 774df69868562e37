package dstest

import (
	"strings"
	"sync/atomic"
	"testing"

	"hyaline/internal/arena"
	"hyaline/internal/trackers"
)

// TestFreedReadsFlagsFreeNodes pins the check itself: a Protect on a
// word of a free node is reported once however often it repeats, and
// one on a live node or outside the node pool is not.
func TestFreedReadsFlagsFreeNodes(t *testing.T) {
	a := arena.New(1 << 8)
	tr := trackers.MustNew("leaky", a, trackers.Config{MaxThreads: 1})
	var msgs []string
	f := newFreedReads(a, tr, func(msg string) { msgs = append(msgs, msg) })

	live, dead := a.Alloc(0), a.Alloc(0)
	a.Free(0, dead)
	var outside atomic.Uint64
	f.Protect(0, 0, &a.Node(live).Left)
	f.Protect(0, 0, &outside)
	if len(msgs) != 0 {
		t.Fatalf("reported a read of live memory: %q", msgs)
	}
	f.Protect(0, 1, &a.Node(dead).Left)
	f.Protect(0, 1, &a.Node(dead).Extra[6])
	if len(msgs) != 1 || !strings.Contains(msgs[0], "free node") {
		t.Fatalf("reports = %q, want one naming the free node", msgs)
	}
	if got := f.hits.Load(); got != 2 {
		t.Fatalf("hits = %d, want 2", got)
	}
}
