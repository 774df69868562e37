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
// one on a live node or outside the node pool is not. It runs on both
// size classes: a pair's last word is in its Tail, a node's is Seq, and
// the slots carved on either side of the free one are live — for a pair
// the live neighbours' words are the lines just before and after it.
func TestFreedReadsFlagsFreeNodes(t *testing.T) {
	for _, wide := range []bool{false, true} {
		a := arena.New(1 << 8)
		tr := trackers.MustNew("leaky", a, trackers.Config{MaxThreads: 1})
		var msgs []string
		f := newFreedReads(a, tr, func(msg string) { msgs = append(msgs, msg) })
		alloc := a.Alloc
		last, lastWord := func(n *arena.Node) *atomic.Uint64 { return &n.Seq }, "word 7 "
		if wide {
			alloc = a.AllocWide
			last, lastWord = func(n *arena.Node) *atomic.Uint64 { return &n.Tail().Extra[6] }, "word 15 "
		}

		live, dead, after := alloc(0), alloc(0), alloc(0)
		a.Free(0, dead)
		var outside atomic.Uint64
		f.Protect(0, 0, &a.Node(live).Left)
		f.Protect(0, 0, last(a.Node(live)))
		f.Protect(0, 0, &a.Node(live).Next)
		f.Protect(0, 0, &a.Node(after).Next)
		f.Protect(0, 0, last(a.Node(after)))
		f.Protect(0, 0, &outside)
		if len(msgs) != 0 {
			t.Fatalf("wide=%v: reported a read of live memory: %q", wide, msgs)
		}
		f.Protect(0, 1, last(a.Node(dead)))
		f.Protect(0, 1, &a.Node(dead).Left)
		if len(msgs) != 1 || !strings.Contains(msgs[0], lastWord+"of free node") {
			t.Fatalf("wide=%v: reports = %q, want one naming %sof the free node", wide, msgs, lastWord)
		}
		if got := f.hits.Load(); got != 2 {
			t.Fatalf("wide=%v: hits = %d, want 2", wide, got)
		}
	}
}
