// Package smrtest provides the conformance and torture tests that every
// reclamation scheme in this repository must pass. Schemes plug in via a
// Factory; the same suite is reused by the per-scheme test files so that
// Hyaline and the baselines are held to identical safety standards.
//
// The tests exploit the simulated unmanaged heap: arena.Free poisons
// payloads and panics on double-free, so premature reclamation by a buggy
// scheme surfaces as a poison read, a double-free panic, or a live/free
// discipline panic — exactly the failure modes a real C implementation
// would exhibit as silent corruption.
package smrtest

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyaline/internal/arena"
	"hyaline/internal/ptr"
	"hyaline/internal/smr"
)

// Factory builds a fresh tracker over a fresh arena for maxThreads.
type Factory func(a *arena.Arena, maxThreads int) smr.Tracker

// Options tunes the torture tests.
type Options struct {
	// Threads is the total worker count (default 2×GOMAXPROCS to include
	// oversubscription).
	Threads int
	// Duration bounds each torture run (default 300ms; -short halves).
	Duration time.Duration
	// QuiescentSlack bounds how many nodes may remain unreclaimed after
	// all threads leave and flush (default: generous scheme-independent
	// bound of 4096 + 256×threads).
	QuiescentSlack int64
	// SkipQuiescence disables the post-run reclamation-completeness check
	// (used by Leaky, which never reclaims).
	SkipQuiescence bool
}

func (o *Options) fill(t *testing.T) {
	if o.Threads == 0 {
		o.Threads = 2 * runtime.GOMAXPROCS(0)
		if o.Threads < 4 {
			o.Threads = 4
		}
	}
	if o.Duration == 0 {
		o.Duration = 300 * time.Millisecond
	}
	if testing.Short() {
		o.Duration /= 2
	}
	if o.QuiescentSlack == 0 {
		o.QuiescentSlack = 4096 + 256*int64(o.Threads)
	}
}

// RunAll runs the full conformance suite against the factory.
func RunAll(t *testing.T, f Factory, opts Options) {
	t.Run("Lifecycle", func(t *testing.T) { Lifecycle(t, f) })
	t.Run("RegisterTorture", func(t *testing.T) { RegisterTorture(t, f, opts) })
	t.Run("ChainTorture", func(t *testing.T) { ChainTorture(t, f, opts) })
	t.Run("Quiescence", func(t *testing.T) { Quiescence(t, f, opts) })
	t.Run("PassAllocatesNothing", func(t *testing.T) { PassAllocatesNothing(t, f) })
	t.Run("AllocWide", func(t *testing.T) { AllocWide(t, f) })
}

// AllocWide checks that a pair is one node to the scheme. AllocWide
// counts one allocation and stamps what Alloc stamps: under the schemes
// that keep a birth era (hyaline-s, hyaline-1s, he, ibr) a pair's Refs
// word lies between the eras of the nodes allocated just before and just
// after it, and the clock moves over the run; under the others it is as
// untouched as theirs. A retired or Dealloc'd pair is freed as a pair:
// still Wide, its Tail poisoned.
func AllocWide(t *testing.T, f Factory) {
	const n = 1000
	a := arena.New(1 << 14)
	tr := f(a, 1)
	nodes, pairs := make([]ptr.Index, n+1), make([]ptr.Index, n)
	tr.Enter(0)
	nodes[0] = tr.Alloc(0)
	for i := range pairs {
		pairs[i] = tr.AllocWide(0)
		nodes[i+1] = tr.Alloc(0)
	}
	tr.Leave(0)
	if st := tr.Stats(); st.Allocated != 2*n+1 {
		t.Fatalf("Allocated = %d after %d Allocs and %d AllocWides", st.Allocated, n+1, n)
	}
	born := func(idx ptr.Index) uint64 { return a.Node(idx).Refs.Load() }
	for i, p := range pairs {
		if !a.Wide(p) {
			t.Fatalf("AllocWide returned %d, not a pair", p)
		}
		if lo, e, hi := born(nodes[i]), born(p), born(nodes[i+1]); e < lo || e > hi {
			t.Fatalf("pair %d stamped %d between nodes stamped %d and %d", p, e, lo, hi)
		}
	}
	stamps := map[string]bool{"hyaline-s": true, "hyaline-1s": true, "he": true, "ibr": true}[tr.Name()]
	if moved := born(nodes[n]) > born(nodes[0]); moved != stamps {
		t.Fatalf("%s: birth era moved %v over %d allocations, want %v", tr.Name(), moved, 2*n+1, stamps)
	}

	for i := range pairs {
		tr.Enter(0)
		tr.Retire(0, pairs[i])
		tr.Retire(0, nodes[i])
		tr.Leave(0)
	}
	if fl, ok := tr.(smr.Flusher); ok {
		fl.Flush(0)
	}
	tr.Enter(0)
	spec := tr.AllocWide(0)
	tr.Dealloc(0, spec)
	tr.Leave(0)
	freed := 0
	for _, p := range append(pairs, spec) {
		nd := a.Node(p)
		if nd.Seq.Load()&1 == 0 {
			continue // still live: not reclaimed yet, or leaky
		}
		freed++
		if !a.Wide(p) || nd.Tail().Aux.Load() != arena.Poison {
			t.Fatalf("freed pair %d: Wide %v, Tail.Aux %#x", p, a.Wide(p), nd.Tail().Aux.Load())
		}
	}
	if _, leaky := isLeaky(tr); freed == 0 || (leaky && freed != 1) {
		t.Fatalf("%s: %d of %d retired pairs and the Dealloc'd one freed", tr.Name(), freed, n)
	}
	runtime.KeepAlive(a)
}

// PassAllocatesNothing checks that retiring, and the reclamation passes
// retiring sets off, allocate nothing on the Go heap: snapshot buffers
// are reused and keep predicates do not escape. Three other threads
// hold published protections, so each pass has reservations to collect
// and nodes to keep.
func PassAllocatesNothing(t *testing.T, f Factory) {
	const readers, retires = 3, 256
	a := arena.New(1 << 14)
	tr := f(a, readers+1)
	var links [readers][2]atomic.Uint64
	tr.Enter(0)
	for i := range links {
		for s := range links[i] {
			links[i][s].Store(ptr.Pack(tr.Alloc(0)))
		}
	}
	tr.Leave(0)
	for i := range links {
		tid := i + 1
		tr.Enter(tid)
		for s := range links[i] {
			tr.Protect(tid, s, &links[i][s])
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		for range retires {
			tr.Enter(0)
			tr.Retire(0, tr.Alloc(0))
			tr.Leave(0)
		}
	})
	for i := range links {
		tr.Leave(i + 1)
	}
	if allocs != 0 {
		t.Fatalf("%v heap allocations per %d retires with %d readers protecting", allocs, retires, readers)
	}
}

// Lifecycle checks the basic single-threaded alloc/retire/flush protocol.
func Lifecycle(t *testing.T, f Factory) {
	a := arena.New(1 << 18) // large enough for Leaky, which never frees
	tr := f(a, 4)

	tr.Enter(0)
	idx := tr.Alloc(0)
	n := a.Node(idx)
	n.Key.Store(42)
	tr.Retire(0, idx)
	tr.Leave(0)

	st := tr.Stats()
	if st.Allocated != 1 || st.Retired != 1 {
		t.Fatalf("stats after one alloc+retire: %+v", st)
	}

	// Churn enough single-threaded operations that every deferred
	// mechanism (batches, epochs, limbo thresholds) fires.
	for i := 0; i < 100_000; i++ {
		tr.Enter(0)
		idx := tr.Alloc(0)
		tr.Retire(0, idx)
		tr.Leave(0)
	}
	if fl, ok := tr.(smr.Flusher); ok {
		fl.Flush(0)
		st = tr.Stats()
		if _, leakyScheme := isLeaky(tr); !leakyScheme && st.Unreclaimed() > 8192 {
			t.Fatalf("after single-threaded churn and flush, %d nodes unreclaimed", st.Unreclaimed())
		}
	}
}

func isLeaky(tr smr.Tracker) (smr.Tracker, bool) {
	return tr, tr.Name() == "leaky"
}

// RegisterTorture hammers a single shared "register": writers install new
// nodes and retire the old, readers protect the register and validate the
// payload invariant Key+1 == Val. A scheme that frees too early exposes
// readers to poisoned or recycled payloads.
func RegisterTorture(t *testing.T, f Factory, opts Options) {
	opts.fill(t)
	a := arena.New(1 << 20)
	tr := f(a, opts.Threads)

	var register atomic.Uint64
	var seed atomic.Uint64

	// Install the initial node.
	tr.Enter(0)
	idx := tr.Alloc(0)
	n := a.Node(idx)
	v := seed.Add(1)
	n.Key.Store(v)
	n.Val.Store(v + 1)
	register.Store(ptr.Pack(idx))
	tr.Leave(0)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, opts.Threads)

	writers := opts.Threads / 2
	if writers == 0 {
		writers = 1
	}
	// Cap total allocations well below the arena capacity so that even a
	// never-reclaiming scheme (Leaky) cannot exhaust the pool.
	maxOps := (1 << 19) / writers
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < maxOps && !stop.Load(); i++ {
				tr.Enter(tid)
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
				tr.Leave(tid)
			}
		}(w)
	}
	for r := writers; r < opts.Threads; r++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for !stop.Load() {
				tr.Enter(tid)
				for i := 0; i < 64; i++ {
					w := tr.Protect(tid, 0, &register)
					n := a.Deref(w)
					k := n.Key.Load()
					val := n.Val.Load()
					if k == arena.Poison || val == arena.Poison {
						errs <- "reader observed poisoned payload (use-after-free)"
						stop.Store(true)
						tr.Leave(tid)
						return
					}
					if k+1 != val {
						errs <- fmt.Sprintf("reader observed torn payload: key=%d val=%d", k, val)
						stop.Store(true)
						tr.Leave(tid)
						return
					}
				}
				tr.Leave(tid)
			}
		}(r)
	}

	time.Sleep(opts.Duration)
	stop.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// ChainTorture exercises protection of multi-hop traversals: each thread
// walks a two-node chain (head -> tail) that writers replace wholesale.
// This catches schemes that protect only the first hop.
func ChainTorture(t *testing.T, f Factory, opts Options) {
	opts.fill(t)
	a := arena.New(1 << 20)
	tr := f(a, opts.Threads)

	var head atomic.Uint64

	mk := func(tid int, v uint64, next ptr.Word) ptr.Index {
		idx := tr.Alloc(tid)
		n := a.Node(idx)
		n.Key.Store(v)
		n.Val.Store(v + 1)
		n.Left.Store(next)
		return idx
	}

	tr.Enter(0)
	tail := mk(0, 1, ptr.Nil)
	h := mk(0, 2, ptr.Pack(tail))
	head.Store(ptr.Pack(h))
	tr.Leave(0)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, opts.Threads)

	writers := opts.Threads / 2
	if writers == 0 {
		writers = 1
	}
	maxOps := (1 << 18) / writers // two allocations per op
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			var v uint64 = uint64(tid) << 32
			for i := 0; i < maxOps && !stop.Load(); i++ {
				tr.Enter(tid)
				v += 2
				newTail := mk(tid, v, ptr.Nil)
				newHead := mk(tid, v+1, ptr.Pack(newTail))
				for {
					old := tr.Protect(tid, 0, &head)
					if head.CompareAndSwap(old, ptr.Pack(newHead)) {
						oldHead := a.Deref(old)
						oldTail := tr.Protect(tid, 1, &oldHead.Left)
						tr.Retire(tid, ptr.Idx(old))
						if !ptr.IsNil(oldTail) {
							tr.Retire(tid, ptr.Idx(oldTail))
						}
						break
					}
				}
				tr.Leave(tid)
			}
		}(w)
	}
	for r := writers; r < opts.Threads; r++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for !stop.Load() {
				tr.Enter(tid)
				for i := 0; i < 64; i++ {
					hw := tr.Protect(tid, 0, &head)
					hn := a.Deref(hw)
					tw := tr.Protect(tid, 1, &hn.Left)
					// Hazard-pointer usage protocol: protecting through a
					// link is only valid while its owner is provably not
					// retired, so re-validate reachability from the root.
					// (Writers retire the old head only after replacing
					// it, so an unchanged root pins the whole chain.)
					if head.Load() != hw {
						continue
					}
					hk := hn.Key.Load()
					hv := hn.Val.Load()
					tn := a.Deref(tw)
					tk := tn.Key.Load()
					tv := tn.Val.Load()
					if hk == arena.Poison || tk == arena.Poison {
						errs <- "poisoned payload behind a validated chain (use-after-free)"
						stop.Store(true)
						tr.Leave(tid)
						return
					}
					if hk+1 != hv || tk+1 != tv {
						errs <- fmt.Sprintf("torn chain: head %d/%d tail %d/%d", hk, hv, tk, tv)
						stop.Store(true)
						tr.Leave(tid)
						return
					}
				}
				tr.Leave(tid)
			}
		}(r)
	}

	time.Sleep(opts.Duration)
	stop.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// Quiescence checks that once every thread has left and flushed, almost
// everything retired has been reclaimed (up to scheme batching slack).
func Quiescence(t *testing.T, f Factory, opts Options) {
	opts.fill(t)
	if opts.SkipQuiescence {
		t.Skip("scheme never reclaims")
	}
	a := arena.New(1 << 20)
	tr := f(a, opts.Threads)

	var register atomic.Uint64
	tr.Enter(0)
	idx := tr.Alloc(0)
	register.Store(ptr.Pack(idx))
	tr.Leave(0)

	var wg sync.WaitGroup
	for w := 0; w < opts.Threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				tr.Enter(tid)
				idx := tr.Alloc(tid)
				for {
					old := tr.Protect(tid, 0, &register)
					if register.CompareAndSwap(old, ptr.Pack(idx)) {
						tr.Retire(tid, ptr.Idx(old))
						break
					}
				}
				tr.Leave(tid)
			}
		}(w)
	}
	wg.Wait()

	fl, ok := tr.(smr.Flusher)
	if !ok {
		t.Skip("scheme does not support Flush")
	}
	// Flush every thread twice: the first pass finalizes batches, the
	// second reaps anything the first pass pushed onto other lists.
	for pass := 0; pass < 3; pass++ {
		for tid := 0; tid < opts.Threads; tid++ {
			fl.Flush(tid)
		}
	}

	st := tr.Stats()
	if un := st.Unreclaimed(); un > opts.QuiescentSlack {
		t.Fatalf("after quiescence %d nodes unreclaimed (slack %d); stats %+v",
			un, opts.QuiescentSlack, st)
	}
	// The arena view must agree: live nodes = unreclaimed + 1 register node.
	live := a.Live()
	expect := st.Unreclaimed() + 1
	if live != expect {
		t.Fatalf("arena live=%d, tracker expects %d (alloc/free accounting drift)", live, expect)
	}
}
