package smrtest

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyaline/internal/arena"
	"hyaline/internal/ptr"
	"hyaline/internal/smr"
)

// RunExtra runs the second-tier conformance scenarios. Every scheme
// package calls it beside RunAll, with the same Options, and no scheme
// opts out: a scenario that does not apply (Trim, a scan trigger)
// skips itself.
func RunExtra(t *testing.T, f Factory, opts Options) {
	t.Run("Dealloc", func(t *testing.T) { Dealloc(t, f) })
	t.Run("FlushIdempotent", func(t *testing.T) { FlushIdempotent(t, f) })
	t.Run("Oversubscribed", func(t *testing.T) { Oversubscribed(t, f, opts) })
	t.Run("InterleavedEnterLeave", func(t *testing.T) { InterleavedEnterLeave(t, f) })
	t.Run("TrimTorture", func(t *testing.T) { TrimTorture(t, f, opts) })
	t.Run("ScanAfterFlush", func(t *testing.T) { ScanAfterFlush(t, f) })
}

// ScanAfterFlush is the regression test for the stuck scan trigger:
// schemes with an adaptive limbo-scan threshold (the trigger moves with
// the surviving count so a pinned limbo list is not rescanned
// quadratically) must re-arm that trigger when a scan reached through
// Flush drains the list. Before the fix the trigger stayed at the
// balloon's high-water mark, so after the flush no retire-triggered
// scan would fire until the limbo re-grew to the old peak — unbounded
// garbage long after the stall cleared.
func ScanAfterFlush(t *testing.T, f Factory) {
	a := arena.New(1 << 15)
	tr := f(a, 2)
	if _, leaky := isLeaky(tr); leaky {
		t.Skip("leaky never reclaims")
	}

	// Balloon: nodes born before a reader's bracket, retired inside it,
	// stay pinned for bracket- and interval-based schemes, growing the
	// retiring thread's limbo (and its scan trigger) to balloon size.
	const balloon = 8192
	idxs := make([]ptr.Index, balloon)
	tr.Enter(0)
	for i := range idxs {
		idxs[i] = tr.Alloc(0)
	}
	tr.Leave(0)
	tr.Enter(1) // the stalled reader
	for _, idx := range idxs {
		tr.Enter(0)
		tr.Retire(0, idx)
		tr.Leave(0)
	}
	high := tr.Stats().Unreclaimed()
	tr.Leave(1)

	// The stall clears and a flush drains the backlog.
	if fl, ok := tr.(smr.Flusher); ok {
		for pass := 0; pass < 3; pass++ {
			fl.Flush(0)
			fl.Flush(1)
		}
	}
	if un := tr.Stats().Unreclaimed(); un != 0 {
		t.Fatalf("flush after the stall cleared left %d unreclaimed", un)
	}

	// A quiet retire stream afterwards must reclaim at the normal
	// threshold cadence, not wait for the old high-water mark.
	const stream = 4096
	const bound = 2048
	var maxUn int64
	for i := 0; i < stream; i++ {
		tr.Enter(0)
		tr.Retire(0, tr.Alloc(0))
		tr.Leave(0)
		if un := tr.Stats().Unreclaimed(); un > maxUn {
			maxUn = un
		}
	}
	if maxUn > bound {
		t.Fatalf("unreclaimed reached %d during a quiet retire stream after a %d-node balloon drained (bound %d): the scan trigger is stuck at the high-water mark",
			maxUn, high, bound)
	}
}

// Dealloc checks the never-published-node fast path: direct free with
// exact accounting, safe to interleave with normal retirement.
func Dealloc(t *testing.T, f Factory) {
	a := arena.New(1 << 15) // roomy enough for Leaky's 10k churn below
	tr := f(a, 2)
	tr.Enter(0)
	spec := tr.Alloc(0)
	seq := a.Node(spec).Seq.Load()
	tr.Dealloc(0, spec)
	if a.Node(spec).Seq.Load() != seq+1 {
		t.Fatal("Dealloc must free immediately")
	}
	st := tr.Stats()
	if st.Unreclaimed() != 0 {
		t.Fatalf("Dealloc left unreclaimed count %d", st.Unreclaimed())
	}
	if a.Live() != 0 {
		t.Fatalf("arena live %d after dealloc", a.Live())
	}
	tr.Leave(0)
	// Interleave Dealloc with Retire under churn; accounting stays exact.
	for i := 0; i < 10_000; i++ {
		tr.Enter(0)
		x := tr.Alloc(0)
		if i%3 == 0 {
			tr.Dealloc(0, x)
		} else {
			tr.Retire(0, x)
		}
		tr.Leave(0)
	}
	if fl, ok := tr.(smr.Flusher); ok {
		fl.Flush(0)
	}
	st = tr.Stats()
	if tr.Name() != "leaky" && st.Unreclaimed() != 0 {
		t.Fatalf("%d unreclaimed after mixed dealloc/retire churn", st.Unreclaimed())
	}
	if got := a.Live(); got != st.Unreclaimed() {
		t.Fatalf("arena live %d, stats say %d", got, st.Unreclaimed())
	}
}

// FlushIdempotent checks that Flush can be called repeatedly, from any
// thread, with nothing pending, without corrupting state.
func FlushIdempotent(t *testing.T, f Factory) {
	fl := func(tr smr.Tracker, tid int) {
		if fls, ok := tr.(smr.Flusher); ok {
			fls.Flush(tid)
		}
	}
	a := arena.New(1 << 12)
	tr := f(a, 4)
	for i := 0; i < 5; i++ {
		fl(tr, 0) // nothing pending at all
	}
	tr.Enter(1)
	x := tr.Alloc(1)
	tr.Retire(1, x)
	tr.Leave(1)
	for pass := 0; pass < 4; pass++ {
		for tid := 0; tid < 4; tid++ {
			fl(tr, tid)
		}
	}
	st := tr.Stats()
	if tr.Name() != "leaky" && st.Unreclaimed() != 0 {
		t.Fatalf("%d unreclaimed after repeated flushes", st.Unreclaimed())
	}
	// Tracker must still work after all that flushing.
	tr.Enter(0)
	y := tr.Alloc(0)
	tr.Retire(0, y)
	tr.Leave(0)
	fl(tr, 0)
}

// Oversubscribed runs the register torture with 8× as many workers as
// cores, the regime of §6's oversubscription experiments, where workers
// are constantly preempted mid-operation.
func Oversubscribed(t *testing.T, f Factory, opts Options) {
	opts.Threads = 8 * runtime.GOMAXPROCS(0)
	if opts.Threads > 256 {
		opts.Threads = 256
	}
	opts.Duration = 150 * time.Millisecond
	RegisterTorture(t, f, opts)
}

// InterleavedEnterLeave drives irregular bracket patterns: empty
// operations, retire-only operations, and bursts of operations with no
// retirement, all of which a scheme must tolerate.
func InterleavedEnterLeave(t *testing.T, f Factory) {
	a := arena.New(1 << 14)
	tr := f(a, 2)
	for i := 0; i < 2_000; i++ {
		switch i % 4 {
		case 0: // empty op
			tr.Enter(0)
			tr.Leave(0)
		case 1: // alloc + retire
			tr.Enter(0)
			x := tr.Alloc(0)
			tr.Retire(0, x)
			tr.Leave(0)
		case 2: // several retires in one op
			tr.Enter(0)
			for j := 0; j < 5; j++ {
				tr.Retire(0, tr.Alloc(0))
			}
			tr.Leave(0)
		default: // op with allocation but no retirement (leaks by design)
			tr.Enter(0)
			x := tr.Alloc(0)
			tr.Leave(0)
			tr.Enter(0)
			tr.Retire(0, x) // retired in a later op
			tr.Leave(0)
		}
	}
	if fl, ok := tr.(smr.Flusher); ok {
		fl.Flush(0)
	}
	if tr.Name() != "leaky" {
		if un := tr.Stats().Unreclaimed(); un != 0 {
			t.Fatalf("%d unreclaimed after irregular bracketing", un)
		}
	}
}

// TrimTorture exercises smr.Trimmer implementations: readers that trim
// instead of leaving must still be protected, and trimmed garbage must
// drain. Schemes without Trim are skipped.
func TrimTorture(t *testing.T, f Factory, opts Options) {
	opts.fill(t)
	a := arena.New(1 << 20)
	tr := f(a, opts.Threads)
	trimmer, ok := tr.(smr.Trimmer)
	if !ok {
		t.Skip("scheme does not implement Trim")
	}

	var register atomic.Uint64
	tr.Enter(0)
	idx := tr.Alloc(0)
	n := a.Node(idx)
	n.Key.Store(1)
	n.Val.Store(2)
	register.Store(ptr.Pack(idx))
	tr.Leave(0)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, opts.Threads)
	writers := opts.Threads / 2
	if writers == 0 {
		writers = 1
	}
	var seed atomic.Uint64
	maxOps := (1 << 18) / writers

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			tr.Enter(tid)
			for i := 0; i < maxOps && !stop.Load(); i++ {
				idx := tr.Alloc(tid)
				n := a.Node(idx)
				v := seed.Add(1)
				n.Key.Store(v)
				n.Val.Store(v + 1)
				for {
					old := tr.Protect(tid, 0, &register)
					if register.CompareAndSwap(old, ptr.Pack(idx)) {
						tr.Retire(tid, ptr.Idx(old))
						break
					}
				}
				trimmer.Trim(tid) // in lieu of leave+enter (§3.3)
			}
			tr.Leave(tid)
		}(w)
	}
	for r := writers; r < opts.Threads; r++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			tr.Enter(tid)
			for !stop.Load() {
				for i := 0; i < 64; i++ {
					w := tr.Protect(tid, 0, &register)
					n := a.Deref(w)
					k := n.Key.Load()
					val := n.Val.Load()
					if k == arena.Poison || val == arena.Poison || k+1 != val {
						errs <- "trim reader observed corrupted payload"
						stop.Store(true)
						tr.Leave(tid)
						return
					}
				}
				trimmer.Trim(tid)
			}
			tr.Leave(tid)
		}(r)
	}
	time.Sleep(opts.Duration)
	stop.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	// All threads have left; a flush pass must drain everything.
	if fl, ok := tr.(smr.Flusher); ok {
		for pass := 0; pass < 3; pass++ {
			for tid := 0; tid < opts.Threads; tid++ {
				fl.Flush(tid)
			}
		}
	}
	if un := tr.Stats().Unreclaimed(); un != 0 {
		t.Fatalf("%d unreclaimed after trim torture quiescence", un)
	}
}
