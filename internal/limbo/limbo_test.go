package limbo

import (
	"testing"
	"unsafe"

	"hyaline/internal/arena"
	"hyaline/internal/ptr"
	"hyaline/internal/smr"
)

func setup(t *testing.T, threshold int) (*arena.Arena, smr.Base, List) {
	t.Helper()
	a := arena.New(1 << 10)
	base := smr.NewBase(a, 2)
	return a, base, New(base, 2, threshold)
}

func TestRetireReportsDuePass(t *testing.T) {
	_, base, l := setup(t, 4)
	for i := 1; i <= 4; i++ {
		if due := l.Retire(0, base.Alloc(0)); due != (i == 4) {
			t.Fatalf("retire %d: due = %v", i, due)
		}
	}
	if due := l.Retire(1, base.Alloc(1)); due {
		t.Fatal("another tid's retire saw tid 0's list")
	}
	if st := base.Stats(); st.Retired != 5 || st.Freed != 0 || st.Scans != 0 {
		t.Fatalf("stats %+v after five retires and no pass", st)
	}
}

func TestScanFreesRejectedAsOneChain(t *testing.T) {
	a, base, l := setup(t, 8)
	var kept, dropped []ptr.Index
	for i := 0; i < 8; i++ {
		idx := base.Alloc(0)
		if i%2 == 0 {
			kept = append(kept, idx)
		} else {
			dropped = append(dropped, idx)
		}
		l.Retire(0, idx)
	}
	seqs := make(map[ptr.Index]uint64)
	for _, idx := range append(kept, dropped...) {
		seqs[idx] = a.Node(idx).Seq.Load()
	}
	keep := make(map[ptr.Word]bool)
	for _, idx := range kept {
		keep[ptr.Pack(idx)] = true
	}
	visited := 0
	l.Scan(0, func(w ptr.Word, n *arena.Node) bool {
		visited++
		if n != a.Deref(w) {
			t.Fatal("keep got a node that is not its word's")
		}
		return keep[w]
	})
	if visited != 8 {
		t.Fatalf("pass visited %d nodes, want 8", visited)
	}
	for _, idx := range kept {
		if a.Node(idx).Seq.Load() != seqs[idx] {
			t.Fatalf("kept node %d was freed", idx)
		}
	}
	for _, idx := range dropped {
		if a.Node(idx).Seq.Load() != seqs[idx]+1 {
			t.Fatalf("rejected node %d was not freed", idx)
		}
	}
	if st := base.Stats(); st.Freed != 4 || st.Scans != 1 || st.Unreclaimed() != 4 {
		t.Fatalf("stats %+v after a pass that frees 4 of 8", st)
	}
	if got := a.Live(); got != 4 {
		t.Fatalf("arena live %d, want the 4 kept", got)
	}

	// The survivors stay listed: a second pass that keeps nothing
	// frees exactly them.
	visited = 0
	l.Scan(0, func(ptr.Word, *arena.Node) bool { visited++; return false })
	if visited != 4 || a.Live() != 0 || base.Stats().Unreclaimed() != 0 {
		t.Fatalf("second pass visited %d, live %d, stats %+v", visited, a.Live(), base.Stats())
	}
}

// TestScanRearmsFromSurvivors pins the adaptive trigger: a pass that
// keeps s nodes asks for the next one after s + threshold listed nodes,
// whether the pass came from Retire or from a flush.
func TestScanRearmsFromSurvivors(t *testing.T) {
	const threshold = 4
	_, base, l := setup(t, threshold)
	keepAll := func(ptr.Word, *arena.Node) bool { return true }
	for i := 0; i < 3*threshold; i++ {
		if l.Retire(0, base.Alloc(0)) {
			l.Scan(0, keepAll)
		}
	}
	// 12 pinned: the trigger sits at 12 + threshold.
	for i := 0; i < threshold-1; i++ {
		if l.Retire(0, base.Alloc(0)) {
			t.Fatalf("pass due after %d retires past a pinned pass", i+1)
		}
	}
	// A flush-style pass frees everything and must lower the trigger.
	l.Scan(0, func(ptr.Word, *arena.Node) bool { return false })
	for i := 1; i <= threshold; i++ {
		if due := l.Retire(0, base.Alloc(0)); due != (i == threshold) {
			t.Fatalf("retire %d after a draining pass: due = %v", i, due)
		}
	}
}

func TestScanEmptyList(t *testing.T) {
	_, base, l := setup(t, 4)
	l.Scan(1, func(ptr.Word, *arena.Node) bool {
		t.Fatal("keep called on an empty list")
		return true
	})
	if st := base.Stats(); st.Scans != 1 || st.Freed != 0 {
		t.Fatalf("stats %+v after an empty pass", st)
	}
}

func TestListFillsCacheLines(t *testing.T) {
	if sz := unsafe.Sizeof(list{}); sz%64 != 0 {
		t.Fatalf("list is %d bytes, not a multiple of a cache line", sz)
	}
}
