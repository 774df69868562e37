package arena

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"

	"hyaline/internal/ptr"
)

func TestAllocAll(t *testing.T) {
	const n = 1000
	a := New(n)
	seen := make(map[ptr.Index]bool, n)
	for i := 0; i < n; i++ {
		idx, ok := a.TryAlloc(0)
		if !ok {
			t.Fatalf("pool exhausted after %d allocs, want %d", i, n)
		}
		if seen[idx] {
			t.Fatalf("index %d allocated twice", idx)
		}
		seen[idx] = true
	}
	if _, ok := a.TryAlloc(0); ok {
		t.Fatal("alloc succeeded on exhausted pool")
	}
	if got := a.Live(); got != n {
		t.Fatalf("Live = %d, want %d", got, n)
	}
}

func TestFreeRecycles(t *testing.T) {
	a := New(1)
	idx := a.Alloc(0)
	a.Free(0, idx)
	idx2, ok := a.TryAlloc(0)
	if !ok || idx2 != idx {
		t.Fatalf("expected the single node to be recycled, got %v %v", idx2, ok)
	}
}

func TestSeqDiscipline(t *testing.T) {
	// Allocation contents are caller-initialized (malloc semantics), but
	// the incarnation stamp must track live/free exactly: even = live,
	// odd = free, +1 per transition.
	a := New(2)
	idx := a.Alloc(0)
	n := a.Node(idx)
	if n.Seq.Load()&1 != 0 {
		t.Fatal("fresh node must be live (even stamp)")
	}
	s0 := n.Seq.Load()
	a.Free(0, idx)
	if got := n.Seq.Load(); got != s0+1 || got&1 != 1 {
		t.Fatalf("after free: stamp %d, want odd %d", got, s0+1)
	}
	idx2 := a.Alloc(0)
	if idx2 != idx {
		t.Fatalf("expected recycle of node %d, got %d", idx, idx2)
	}
	if got := n.Seq.Load(); got != s0+2 || got&1 != 0 {
		t.Fatalf("after realloc: stamp %d, want even %d", got, s0+2)
	}
	runtime.KeepAlive(a) // n points into a's slab
}

// nodeWords returns every atomic.Uint64 word of n by field path, and of
// its Tail too when wide, found by reflection so that a field added to
// Node or Tail later is covered without editing the tests that use it. A
// field of any other type fails t.
func nodeWords(t *testing.T, n *Node, wide bool) map[string]*atomic.Uint64 {
	t.Helper()
	words := map[string]*atomic.Uint64{}
	structWords(t, "", reflect.ValueOf(n).Elem(), words)
	if wide {
		structWords(t, "Tail.", reflect.ValueOf(n.Tail()).Elem(), words)
	}
	return words
}

func structWords(t *testing.T, prefix string, v reflect.Value, words map[string]*atomic.Uint64) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), prefix+v.Type().Field(i).Name
		switch w := f.Addr().Interface().(type) {
		case *atomic.Uint64:
			words[name] = w
		case *[MaxLinks - 1]atomic.Uint64:
			for j := range w {
				words[fmt.Sprintf("%s[%d]", name, j)] = &w[j]
			}
		default:
			t.Fatalf("%s is a %s: neither an atomic.Uint64 nor the Extra array", name, f.Type())
		}
	}
}

// allocs allocates from each size class.
var allocs = map[string]func(a *Arena, tid int) ptr.Index{
	"node": (*Arena).Alloc,
	"pair": (*Arena).AllocWide,
}

// neighbours reports whether fresh slots idx and next of a class are
// carved side by side: nodes upward one line apart, pairs downward two
// lines apart, each pair's Tail just below the pair carved before it.
func neighbours(class string, idx, next ptr.Index) bool {
	if class == "pair" {
		return next == idx-2
	}
	return next == idx+1
}

// TestPoisonOnFree checks that every word of a freed node but the
// free-list link and the stamp reads Poison, through Free and through
// Release+FreeChain alike, for either class: a pair's Tail included, and
// not one word of the neighbouring slot — the next node, whose header a
// node's poison would otherwise overwrite, or the pair carved after. Run
// under -race as well: that build stores the poison with the other body
// of ptr.StoreOwned.
func TestPoisonOnFree(t *testing.T) {
	free := map[string]func(a *Arena, idx ptr.Index){
		"Free": func(a *Arena, idx ptr.Index) { a.Free(0, idx) },
		"Release+FreeChain": func(a *Arena, idx ptr.Index) {
			var c Chain
			a.Release(&c, idx)
			a.FreeChain(0, &c)
		},
	}
	for class, alloc := range allocs {
		for how, free := range free {
			how := class + "/" + how
			a := New(4)
			idx, next := alloc(a, 0), alloc(a, 0)
			if !neighbours(class, idx, next) {
				t.Fatalf("%s: fresh slots %d and %d are not adjacent", how, idx, next)
			}
			n := a.Node(idx)
			words := nodeWords(t, n, class == "pair")
			neighbour := nodeWords(t, a.Node(next), class == "pair")
			// Every word but Seq, which carries a pair's class.
			for name, w := range words {
				if name != "Seq" {
					w.Store(1234)
				}
			}
			for name, w := range neighbour {
				if name != "Seq" {
					w.Store(5678)
				}
			}
			seq, nseq := n.Seq.Load(), a.Node(next).Seq.Load()
			free(a, idx)
			for name, w := range words {
				switch got := w.Load(); {
				case name == "Seq":
					if got != seq+1 {
						t.Errorf("%s: Seq = %d, want %d", how, got, seq+1)
					}
				case name == "Next":
				case got != Poison:
					t.Errorf("%s: %s = %#x after free, want poison", how, name, got)
				}
			}
			for name, w := range neighbour {
				want := uint64(5678)
				if name == "Seq" {
					want = nseq
				}
				if got := w.Load(); got != want {
					t.Errorf("%s: freeing node %d wrote node %d's %s: %#x", how, idx, next, name, got)
				}
			}
			runtime.KeepAlive(a) // n points into a's slab
		}
	}
}

// TestFreeChain pins what one push of a chain does to the arena: the
// nodes come back LIFO from the shard they were pushed to, the counters
// move by the chain's length, the hint learns of a shard it went to
// empty, and an empty chain is a no-op.
func TestFreeChain(t *testing.T) {
	const n, tid = 16, 5
	a := New(4 * n)
	var idx []ptr.Index
	for i := 0; i < n; i++ {
		idx = append(idx, a.Alloc(0))
	}
	before := a.Stats()

	var c Chain
	a.FreeChain(tid, &c)
	if a.Stats() != before || a.nonEmpty[narrow].Load() != 0 || a.free[narrow][tid].head.Load() != 0 {
		t.Fatal("FreeChain of an empty chain changed the arena")
	}
	for _, x := range idx {
		a.Release(&c, x)
	}
	if c.Len() != n {
		t.Fatalf("chain Len = %d, want %d", c.Len(), n)
	}
	if a.Stats() != before {
		t.Fatal("Release must not count a node as freed before FreeChain")
	}
	a.FreeChain(tid, &c)
	if c != (Chain{}) {
		t.Fatalf("FreeChain left the chain non-empty: %+v", c)
	}
	if got := a.Stats(); got.Freed != before.Freed+n || got.Allocated != before.Allocated {
		t.Fatalf("Stats = %+v, want Freed %d", got, before.Freed+n)
	}
	if a.Live() != 0 {
		t.Fatalf("Live = %d, want 0", a.Live())
	}
	if a.nonEmpty[narrow].Load() != 1<<tid {
		t.Fatalf("hint %#x after a push onto empty shard %d", a.nonEmpty[narrow].Load(), tid)
	}
	for i := n - 1; i >= 0; i-- {
		if got := a.Alloc(tid); got != idx[i] {
			t.Fatalf("Alloc #%d = %d, want %d (the chain's head first)", n-1-i, got, idx[i])
		}
	}

	mustDoubleFree := func(what string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r != "arena: double free" {
				t.Errorf("%s: recovered %v, want a double-free panic", what, r)
			}
		}()
		f()
	}
	var d Chain
	a.Release(&d, idx[0])
	mustDoubleFree("Release of a chained node", func() { a.Release(&d, idx[0]) })
	a.Free(tid, idx[1])
	mustDoubleFree("Release of a free node", func() { a.Release(&d, idx[1]) })
}

// TestChainsUnderCrossTidFrees: goroutines allocate under their own tid
// and push their nodes as chains onto a neighbour's shard, while the
// neighbours allocate from those shards (run it under -race). At
// quiescence every node is free exactly once.
func TestChainsUnderCrossTidFrees(t *testing.T) {
	const (
		workers = 4
		rounds  = 2_000
		k       = 32
	)
	a := New(workers * k * 4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			idx := make([]ptr.Index, k)
			var c Chain
			for r := 0; r < rounds; r++ {
				for i := range idx {
					idx[i] = a.Alloc(w)
				}
				for _, x := range idx {
					a.Release(&c, x)
				}
				a.FreeChain((w+1)%workers, &c)
			}
		}(w)
	}
	wg.Wait()

	if live := a.Live(); live != 0 {
		t.Fatalf("Live = %d after every chain was pushed", live)
	}
	if s := a.Stats(); s.Allocated != s.Freed || s.Freed != workers*rounds*k {
		t.Fatalf("Stats = %+v, want %d allocated and freed", s, workers*rounds*k)
	}
	f := carvedNodes(a)
	for i := int64(0); i < f; i++ {
		if seq := a.Node(ptr.Index(i)).Seq.Load(); seq&1 == 0 {
			t.Fatalf("node %d has live stamp %d at quiescence", i, seq)
		}
	}
	total := 0
	for _, n := range freeListLens(t, a, narrow) {
		total += n
	}
	if int64(total) != f {
		t.Fatalf("free lists hold %d nodes, frontier handed out %d", total, f)
	}
}

func TestLinkWords(t *testing.T) {
	// Multi-link nodes: Link(0) aliases Left, upper levels map onto the
	// Tail's Extra words, and on a pair all of them are poisoned on Free.
	// After a node that is not a pair the Tail's bytes are the next
	// node's header, and Free leaves them alone.
	for width, alloc := range allocs {
		a := New(4)
		idx, next := alloc(a, 0), alloc(a, 0)
		n := a.Node(idx)
		if n.Link(0) != &n.Left {
			t.Fatalf("%s: Link(0) must alias Left", width)
		}
		for lvl := 1; lvl < MaxLinks; lvl++ {
			if n.Link(lvl) != &n.Tail().Extra[lvl-1] {
				t.Fatalf("%s: Link(%d) must alias Tail().Extra[%d]", width, lvl, lvl-1)
			}
		}
		if tail, nn := uintptr(unsafe.Pointer(n.Tail())), uintptr(unsafe.Pointer(a.Node(next))); width == "node" && tail != nn {
			t.Fatalf("node: Tail at %#x, want node %d's header at %#x", tail, next, nn)
		}
		before := make([]uint64, MaxLinks)
		for lvl := 0; lvl < MaxLinks; lvl++ {
			if width == "pair" {
				n.Link(lvl).Store(uint64(100 + lvl))
			}
			before[lvl] = n.Link(lvl).Load()
		}
		a.Free(0, idx)
		for lvl := 0; lvl < MaxLinks; lvl++ {
			want := uint64(Poison)
			if width == "node" && lvl > 0 {
				want = before[lvl]
			}
			if got := n.Link(lvl).Load(); got != want {
				t.Fatalf("%s: Link(%d) = %#x after Free, want %#x", width, lvl, got, want)
			}
		}
		runtime.KeepAlive(a) // n points into a's slab
	}
}

// TestLinkOutOfRangePanics pins the Link contract at its edges: on a
// pair the valid levels 0..MaxLinks-1 address MaxLinks distinct words,
// and any level outside that range panics instead of silently aliasing
// a neighbouring node's memory.
func TestLinkOutOfRangePanics(t *testing.T) {
	a := New(4)
	n := a.Node(a.AllocWide(0))

	seen := map[*atomic.Uint64]int{}
	for lvl := 0; lvl < MaxLinks; lvl++ {
		w := n.Link(lvl)
		if prev, dup := seen[w]; dup {
			t.Fatalf("Link(%d) and Link(%d) share a word", prev, lvl)
		}
		seen[w] = lvl
	}

	mustPanic := func(lvl int) {
		defer func() {
			if recover() == nil {
				t.Errorf("Link(%d) must panic", lvl)
			}
		}()
		n.Link(lvl)
	}
	for _, lvl := range []int{MaxLinks, MaxLinks + 1, 100, -1} {
		mustPanic(lvl)
	}
}

func TestStealAcrossShards(t *testing.T) {
	// Capacity 1: the single node lives in shard 0; allocating from any tid
	// must steal it.
	a := New(1)
	idx, ok := a.TryAlloc(37)
	if !ok {
		t.Fatal("steal failed")
	}
	a.Free(37, idx) // lands in shard 37&63
	if _, ok := a.TryAlloc(5); !ok {
		t.Fatal("steal from non-home shard failed")
	}
}

// TestRemoteFreeRecycles is the shape Hyaline gives the allocator: one
// tid allocates, another frees (the thread that drops a batch's last
// reference is rarely the one that retired it). The freed nodes must
// come back to the allocating tid instead of each round taking a fresh
// node while the freeing tid's shard fills up.
func TestRemoteFreeRecycles(t *testing.T) {
	const rounds = 100_000
	a := New(2 * rounds)
	start := a.frontier.Load()
	for i := 0; i < rounds; i++ {
		a.Free(1, a.Alloc(0))
	}
	if grew := a.frontier.Load() - start; grew > 64 {
		t.Fatalf("frontier grew by %d nodes over %d alloc(tid 0)/free(tid 1) rounds, want <= 64", grew, rounds)
	}
	if a.Live() != 0 {
		t.Fatalf("Live = %d after every node was freed", a.Live())
	}
}

// carvedNodes is the number of nodes the frontier has carved, which may
// overshoot the capacity (see carve).
func carvedNodes(a *Arena) int64 {
	return int64(min(a.frontier.Load()&headIdxMask, uint64(a.capacity)))
}

// freeListLens walks every shard's free list of class c at quiescence.
func freeListLens(t *testing.T, a *Arena, c class) (lens [shards]int) {
	t.Helper()
	seen := make(map[ptr.Index]bool)
	for s := range a.free[c] {
		for hi := a.free[c][s].head.Load() & headIdxMask; hi != 0; hi = a.Node(ptr.Index(hi-1)).Next.Load() & headIdxMask {
			idx := ptr.Index(hi - 1)
			if seen[idx] {
				t.Fatalf("node %d is on the free lists twice", idx)
			}
			if a.Node(idx).Seq.Load()&1 == 0 {
				t.Fatalf("node %d is on shard %d's free list with a live stamp", idx, s)
			}
			seen[idx] = true
			lens[s]++
		}
	}
	return lens
}

// TestHintTracksFreeLists churns allocations and remote frees from many
// goroutines (run it under -race) and checks the recycling hint's one
// hard promise at quiescence: every shard that holds free nodes has its
// bit set, so no freed node is invisible to a thread whose own shard is
// empty.
func TestHintTracksFreeLists(t *testing.T) {
	const (
		workers = 8
		rounds  = 20_000
	)
	a := New(workers * rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			held := make([]ptr.Index, 0, 8)
			for r := 0; r < rounds; r++ {
				// Allocate under one tid, free under another: tids w and
				// w+1 overlap between neighbours, so every shard sees its
				// owner, a remote freer and thieves at once.
				if len(held) < 8 && r%9 != 0 {
					held = append(held, a.Alloc(w))
					continue
				}
				for _, idx := range held {
					a.Free((w+1+r%2)%workers, idx)
				}
				held = held[:0]
			}
			for _, idx := range held {
				a.Free(w, idx)
			}
		}(w)
	}
	wg.Wait()

	if live := a.Live(); live != 0 {
		t.Fatalf("Live = %d after every node was freed", live)
	}
	lens := freeListLens(t, a, narrow)
	total := int64(0)
	hint := a.nonEmpty[narrow].Load()
	for s, n := range lens {
		total += int64(n)
		if n > 0 && hint&(1<<s) == 0 {
			t.Fatalf("shard %d holds %d free nodes but its hint bit is clear (hint %#x)", s, n, hint)
		}
	}
	// Everything ever taken from the frontier was freed, exactly once.
	f := carvedNodes(a)
	if total != f {
		t.Fatalf("free lists hold %d nodes, frontier handed out %d", total, f)
	}
	t.Logf("%d allocations were served from %d nodes", a.Stats().Allocated, f)

	a.Reset()
	if hint := a.nonEmpty[narrow].Load(); hint != 0 {
		t.Fatalf("hint %#x after Reset, want 0", hint)
	}
}

// TestHintStaysZeroWithoutFrees pins the prefill/Leaky fast path: with
// nothing ever freed no hint bit is written, so an allocation whose home
// shard is empty goes to the frontier after one load of zero.
func TestHintStaysZeroWithoutFrees(t *testing.T) {
	const n = 1000
	a := New(n)
	for i := 0; i < n; i++ {
		a.Alloc(i) // every shard allocates
	}
	if hint := a.nonEmpty[narrow].Load(); hint != 0 {
		t.Fatalf("hint %#x with nothing freed, want 0", hint)
	}
	if _, ok := a.TryAlloc(0); ok {
		t.Fatal("alloc succeeded on exhausted pool")
	}
}

// TestStaleClearHintStillSteals: the hint is advisory, so a shard whose
// bit is clear must still be found by the exhaustion scan.
func TestStaleClearHintStillSteals(t *testing.T) {
	a := New(1)
	a.Free(9, a.Alloc(0))
	a.nonEmpty[narrow].Store(0) // as if a racing clear had won
	if _, ok := a.TryAlloc(0); !ok {
		t.Fatal("node on an unhinted shard was not found once the frontier ran out")
	}
}

func TestStats(t *testing.T) {
	a := New(10)
	x := a.Alloc(0)
	y := a.Alloc(1)
	a.Free(1, y)
	s := a.Stats()
	if s.Allocated != 2 || s.Freed != 1 {
		t.Fatalf("Stats = %+v, want {2 1}", s)
	}
	if a.Live() != 1 {
		t.Fatalf("Live = %d, want 1", a.Live())
	}
	a.Free(0, x)
}

func TestDeref(t *testing.T) {
	for class, alloc := range allocs {
		a := New(8)
		prev := alloc(a, 0)
		idx := alloc(a, 0)
		w := ptr.Pack(idx)
		if a.Deref(w) != a.Node(idx) {
			t.Fatalf("%s: Deref and Node disagree", class)
		}
		if a.Deref(ptr.WithMark(w)) != a.Node(idx) {
			t.Fatalf("%s: Deref must ignore mark bits", class)
		}
		// Every index is a line: nodes one line apart, pairs two.
		want := map[string]uintptr{"node": 64, "pair": 128}[class]
		if got := uintptr(unsafe.Pointer(a.Node(idx))) - uintptr(unsafe.Pointer(a.Node(prev))); got != want && -got != want {
			t.Fatalf("%s: fresh slots %d and %d are %d bytes apart, want %d", class, prev, idx, int(got), want)
		}
	}
}

// TestConcurrentAllocFree hammers the free lists from many goroutines and
// checks that no index is ever handed out twice concurrently.
func TestConcurrentAllocFree(t *testing.T) {
	const (
		workers = 8
		rounds  = 20000
		cap     = 256
	)
	a := New(cap)
	owned := make([]int32, cap) // 0 = free, 1 = owned

	var wg sync.WaitGroup
	errc := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			local := make([]ptr.Index, 0, 8)
			for r := 0; r < rounds; r++ {
				if len(local) < 4 {
					if idx, ok := a.TryAlloc(tid); ok {
						if owned[idx] != 0 {
							errc <- "double allocation detected"
							return
						}
						owned[idx] = 1
						local = append(local, idx)
					}
				} else {
					idx := local[len(local)-1]
					local = local[:len(local)-1]
					owned[idx] = 0
					a.Free(tid, idx)
				}
			}
			for _, idx := range local {
				owned[idx] = 0
				a.Free(tid, idx)
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for e := range errc {
		t.Fatal(e)
	}
	if a.Live() != 0 {
		t.Fatalf("leak: Live = %d after all frees", a.Live())
	}
}

// TestQuickAllocFreeConservation: any interleaved sequence of allocs and
// frees conserves nodes — allocated-freed equals outstanding handles.
func TestQuickAllocFreeConservation(t *testing.T) {
	f := func(ops []bool) bool {
		a := New(64)
		var held []ptr.Index
		for _, alloc := range ops {
			if alloc {
				if idx, ok := a.TryAlloc(0); ok {
					held = append(held, idx)
				}
			} else if len(held) > 0 {
				idx := held[len(held)-1]
				held = held[:len(held)-1]
				a.Free(0, idx)
			}
		}
		return a.Live() == int64(len(held))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReset(t *testing.T) {
	a := New(128)
	x := a.Alloc(0)
	a.Node(x).Key.Store(5)
	y := a.Alloc(0)
	a.Free(0, y)
	a.Reset()
	if a.Live() != 0 {
		t.Fatalf("Live = %d after Reset", a.Live())
	}
	s := a.Stats()
	if s.Allocated != 0 || s.Freed != 0 {
		t.Fatalf("stats not reset: %+v", s)
	}
	// Everything is allocatable again, zeroed, with fresh stamps.
	seen := 0
	for {
		idx, ok := a.TryAlloc(0)
		if !ok {
			break
		}
		n := a.Node(idx)
		if n.Key.Load() != 0 || n.Seq.Load()&1 != 0 {
			t.Fatalf("node %d not reset: key=%d seq=%d", idx, n.Key.Load(), n.Seq.Load())
		}
		seen++
	}
	if seen != 128 {
		t.Fatalf("only %d nodes allocatable after Reset", seen)
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	for _, c := range []int{0, -1, maxCapacity + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) must panic", c)
				}
			}()
			New(c)
		}()
	}
}

// BenchmarkNewArena is the construction cost of a default-sized store's
// node pool, measured after one arena has been built and dropped: a
// Go-heap slab would then reuse the freed span and be re-zeroed in full
// by the runtime, while a mapped one costs a map call at any capacity.
func BenchmarkNewArena(b *testing.B) {
	New(1 << 20)
	runtime.GC()
	for b.Loop() {
		New(1 << 20)
	}
}

// BenchmarkArenaRemoteFree is the allocate-here, free-there round trip
// the reclamation schemes produce; frontier/op near zero means the freed
// nodes are being recycled rather than the pool growing.
func BenchmarkArenaRemoteFree(b *testing.B) {
	a := New(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Free(1, a.Alloc(0))
	}
	b.ReportMetric(float64(a.frontier.Load())/float64(b.N), "frontier/op")
}

// BenchmarkFree is an allocation and its free: alone through Free, and
// as one of 64 nodes released into a chain that one FreeChain pushes,
// the shape of a reclamation pass (ns/node).
func BenchmarkFree(b *testing.B) {
	b.Run("single", func(b *testing.B) {
		a := New(1 << 16)
		for b.Loop() {
			a.Free(0, a.Alloc(0))
		}
	})
	b.Run("chain64", func(b *testing.B) {
		const n = 64
		a := New(1 << 16)
		var idx [n]ptr.Index
		var c Chain
		for b.Loop() {
			for i := range idx {
				idx[i] = a.Alloc(0)
			}
			for _, x := range idx {
				a.Release(&c, x)
			}
			a.FreeChain(0, &c)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/node")
	})
}

// TestLayoutReadMostlyLine checks that no cache line holding the words
// every traversal hop reads (nodes and mask, and capacity and blobs
// beside them) holds a word that an allocation or a free of either class
// writes: frontier, a class's nonEmpty hint or any shard's free-list
// head of the node class or the pair class. Otherwise every pop and push by one
// core would invalidate the line another core's Deref reads. Lines are
// counted in whole 64-byte lines from the start of the struct: the Go
// heap does not promise an Arena 64-byte alignment, so this checks the
// layout the code controls, not where one allocation's lines fall.
func TestLayoutReadMostlyLine(t *testing.T) {
	const line = 64
	var a Arena
	type word struct {
		name      string
		off, size uintptr
	}
	readMostly := []word{
		{"nodes", unsafe.Offsetof(a.nodes), unsafe.Sizeof(a.nodes)},
		{"capacity", unsafe.Offsetof(a.capacity), unsafe.Sizeof(a.capacity)},
		{"mask", unsafe.Offsetof(a.mask), unsafe.Sizeof(a.mask)},
		{"blobs", unsafe.Offsetof(a.blobs), unsafe.Sizeof(a.blobs)},
	}
	written := []word{
		{"frontier", unsafe.Offsetof(a.frontier), unsafe.Sizeof(a.frontier)},
	}
	for c := range a.free {
		hint := unsafe.Offsetof(a.nonEmpty) + uintptr(c)*unsafe.Sizeof(a.nonEmpty[0])
		written = append(written, word{fmt.Sprintf("nonEmpty[%d]", c), hint, unsafe.Sizeof(a.nonEmpty[c])})
		for s := range a.free[c] {
			off := unsafe.Offsetof(a.free) + uintptr(c)*unsafe.Sizeof(a.free[0]) + uintptr(s)*unsafe.Sizeof(a.free[0][0]) + unsafe.Offsetof(a.free[0][0].head)
			written = append(written, word{fmt.Sprintf("free[%d][%d].head", c, s), off, unsafe.Sizeof(a.free[c][s].head)})
		}
	}
	readLines := make(map[uintptr]string)
	for _, r := range readMostly {
		for l := r.off / line; l <= (r.off+r.size-1)/line; l++ {
			readLines[l] = r.name
		}
	}
	for _, w := range written {
		for l := w.off / line; l <= (w.off+w.size-1)/line; l++ {
			if r, ok := readLines[l]; ok {
				t.Errorf("%s (offset %d) shares line %d with the read-mostly %s", w.name, w.off, l, r)
			}
		}
	}
}
