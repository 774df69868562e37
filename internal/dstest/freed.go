// The freed-read check: the churn phases once more, with the structure's
// tracker behind a wrapper that fails the test whenever Protect is
// handed the address of a word inside a free arena node (odd Seq). A
// traversal that gets there has followed a link out of a node already
// handed back to the arena. The validation that follows may throw the
// value away, so no answer need be wrong, but in C the read itself is
// the use-after-free.
//
// The wrapper embeds the tracker, so it does not inherit PlainLoad (see
// smr.PlainLoader): under every scheme each hop makes the Protect call.
// That changes the schedules the phases explore, which is why the check
// runs beside the normal phases and does not replace them. A free node
// that has already been recycled is live again and passes the parity
// test, so silence is evidence, not proof.
package dstest

import (
	"fmt"
	"sync/atomic"
	"testing"
	"unsafe"

	"hyaline/internal/arena"
	"hyaline/internal/ptr"
	"hyaline/internal/smr"
)

// freedReads is the checking wrapper. report receives the first hit;
// later hits only count.
type freedReads struct {
	smr.Tracker
	a      *arena.Arena
	report func(msg string)
	hits   atomic.Int64
}

func newFreedReads(a *arena.Arena, tr smr.Tracker, report func(msg string)) *freedReads {
	return &freedReads{Tracker: tr, a: a, report: report}
}

// Protect checks the node addr lies in, if any — a pair's Tail belongs
// to its pair (arena.Arena.Owner) — and then protects through the wrapped
// tracker.
func (f *freedReads) Protect(tid, slot int, addr *atomic.Uint64) ptr.Word {
	if idx, word, ok := f.a.Owner(unsafe.Pointer(addr)); ok {
		if seq := f.a.Node(idx).Seq.Load(); seq&1 != 0 && f.hits.Add(1) == 1 {
			f.report(fmt.Sprintf("tid %d: Protect(slot %d) reads word %d of free node %d (seq %#x, word %#x)",
				tid, slot, word, idx, seq, addr.Load()))
		}
	}
	return f.Tracker.Protect(tid, slot, addr)
}

// checkFreed wraps a factory so that the structure it builds holds its
// tracker behind the freed-read check, reporting to t. The suite keeps
// the bare tracker for Enter, Leave, Flush and Stats.
func checkFreed[M any](t *testing.T, f func(*arena.Arena, smr.Tracker) M) func(*arena.Arena, smr.Tracker) M {
	return func(a *arena.Arena, tr smr.Tracker) M {
		return f(a, newFreedReads(a, tr, func(msg string) { t.Error(msg) }))
	}
}

// FreedReads runs ConcurrentChurn and RangeScan under every scheme with
// the freed-read check in place.
func FreedReads(t *testing.T, f Factory, opts Options) {
	opts.fill()
	for _, scheme := range opts.Schemes {
		t.Run(scheme, func(t *testing.T) {
			t.Run("ConcurrentChurn", func(t *testing.T) { ConcurrentChurn(t, checkFreed(t, f), scheme, opts) })
			t.Run("RangeScan", func(t *testing.T) { RangeScan(t, checkFreed(t, f), scheme, opts) })
		})
	}
}

// FreedReadsBytes is FreedReads for a bytes structure: its churn phase
// under every scheme with the freed-read check in place.
func FreedReadsBytes(t *testing.T, f BytesFactory, opts Options) {
	opts.fill()
	for _, scheme := range opts.Schemes {
		t.Run(scheme, func(t *testing.T) { ConcurrentChurnBytes(t, checkFreed(t, f), scheme, opts) })
	}
}
