package arena

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"hyaline/internal/ptr"
)

// TestPairMixedFillToCapacity fills arenas to exactly their capacity
// with a random mix of nodes and pairs: no two slots share a line, every
// pair starts on an even line and is Wide, every node is not, each pair
// counts as one node, and then neither class can be allocated.
func TestPairMixedFillToCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, capacity := range []int{1, 2, 3, 64, 100, 1000} {
		for _, share := range []float64{0, 0.25, 0.5, 1} {
			a := New(capacity)
			owner := make(map[ptr.Index]ptr.Index) // line -> slot using it
			claim := func(line, idx ptr.Index) {
				if int(line) >= len(a.nodes) {
					t.Fatalf("cap %d: slot %d uses line %d past the slab's %d", capacity, idx, line, len(a.nodes))
				}
				if prev, taken := owner[line]; taken {
					t.Fatalf("cap %d: slots %d and %d share line %d", capacity, prev, idx, line)
				}
				owner[line] = idx
			}
			for i := 0; i < capacity; i++ {
				if rng.Float64() < share {
					idx, ok := a.TryAllocWide(i)
					if !ok {
						t.Fatalf("cap %d: pair #%d refused", capacity, i)
					}
					if idx%2 != 0 || !a.Wide(idx) {
						t.Fatalf("cap %d: pair %d is odd or not Wide", capacity, idx)
					}
					claim(idx, idx)
					claim(idx+1, idx)
				} else {
					idx, ok := a.TryAlloc(i)
					if !ok {
						t.Fatalf("cap %d: node #%d refused", capacity, i)
					}
					if a.Wide(idx) {
						t.Fatalf("cap %d: node %d is Wide", capacity, idx)
					}
					claim(idx, idx)
				}
			}
			if a.Live() != int64(capacity) {
				t.Fatalf("cap %d: Live = %d after filling it", capacity, a.Live())
			}
			if _, ok := a.TryAlloc(0); ok {
				t.Fatalf("cap %d: TryAlloc succeeded on a full arena", capacity)
			}
			if _, ok := a.TryAllocWide(0); ok {
				t.Fatalf("cap %d: TryAllocWide succeeded on a full arena", capacity)
			}
		}
	}
}

// TestFullFrontierStaysPut: failed allocations on a full arena leave the
// frontier word as it was. An add per failure would, after 2^32 of them,
// carry the node count into the pair count.
func TestFullFrontierStaysPut(t *testing.T) {
	a := New(8)
	for i := 0; i < 4; i++ {
		a.Alloc(0)
		a.AllocWide(0)
	}
	f := a.frontier.Load()
	for i := 0; i < 10_000; i++ {
		if _, ok := a.TryAlloc(i); ok {
			t.Fatal("TryAlloc succeeded on a full arena")
		}
		if _, ok := a.TryAllocWide(i); ok {
			t.Fatal("TryAllocWide succeeded on a full arena")
		}
	}
	if got := a.frontier.Load(); got != f {
		t.Fatalf("frontier %#x after failed allocations, want %#x", got, f)
	}
}

// TestPairRecycles: a freed pair comes back as a pair, still Wide, from
// its own class's free list and never as a node; a double free of either
// class panics.
func TestPairRecycles(t *testing.T) {
	a := New(2)
	p, n := a.AllocWide(0), a.Alloc(0)
	a.Free(3, p)
	a.Free(3, n)
	if a.nonEmpty[wide].Load() != 1<<3 || a.nonEmpty[narrow].Load() != 1<<3 {
		t.Fatalf("hints %#x %#x after freeing one of each class on shard 3", a.nonEmpty[narrow].Load(), a.nonEmpty[wide].Load())
	}
	if got := a.Alloc(0); got != n {
		t.Fatalf("Alloc = %d, want the freed node %d", got, n)
	}
	if _, ok := a.TryAlloc(0); ok {
		t.Fatal("a freed pair was handed out as a node")
	}
	if got := a.AllocWide(0); got != p || !a.Wide(got) {
		t.Fatalf("AllocWide = %d (Wide %v), want the freed pair %d", got, a.Wide(got), p)
	}
	for class, idx := range map[string]ptr.Index{"node": n, "pair": p} {
		a.Free(0, idx)
		func() {
			defer func() {
				if r := recover(); r != "arena: double free" {
					t.Errorf("%s: recovered %v, want a double-free panic", class, r)
				}
			}()
			a.Free(0, idx)
		}()
	}
}

// TestPairChain: one chain takes both classes, Len counts both, and
// FreeChain pushes each onto its own class's list with one counter add.
func TestPairChain(t *testing.T) {
	a := New(8)
	var c Chain
	var pairs, nodes []ptr.Index
	for i := 0; i < 3; i++ {
		pairs = append(pairs, a.AllocWide(0))
		nodes = append(nodes, a.Alloc(0))
	}
	for i := range pairs {
		a.Release(&c, pairs[i])
		a.Release(&c, nodes[i])
	}
	if c.Len() != 6 {
		t.Fatalf("Len = %d, want 6", c.Len())
	}
	a.FreeChain(5, &c)
	if c != (Chain{}) || a.Live() != 0 {
		t.Fatalf("after FreeChain: chain %+v, Live %d", c, a.Live())
	}
	if l := freeListLens(t, a, wide); l[5] != 3 {
		t.Fatalf("pair list of shard 5 holds %d, want 3", l[5])
	}
	if l := freeListLens(t, a, narrow); l[5] != 3 {
		t.Fatalf("node list of shard 5 holds %d, want 3", l[5])
	}
}

// TestResetClearsBothEnds: Reset zeroes the nodes carved from the bottom
// and the pairs carved from the top, Tails included, and the next
// carving starts from both ends again.
func TestResetClearsBothEnds(t *testing.T) {
	a := New(16)
	var nodes, pairs []ptr.Index
	for i := 0; i < 4; i++ {
		nodes = append(nodes, a.Alloc(0))
		pairs = append(pairs, a.AllocWide(0))
	}
	for _, idx := range nodes {
		a.Node(idx).Key.Store(7)
	}
	for _, idx := range pairs {
		a.Node(idx).Key.Store(7)
		a.Node(idx).Tail().Aux.Store(7)
	}
	a.Free(0, nodes[0])
	a.Free(0, pairs[0])
	a.Reset()
	if a.frontier.Load() != 0 || a.Live() != 0 || a.nonEmpty[narrow].Load() != 0 || a.nonEmpty[wide].Load() != 0 {
		t.Fatalf("Reset left frontier %#x, Live %d, hints %#x %#x", a.frontier.Load(), a.Live(), a.nonEmpty[narrow].Load(), a.nonEmpty[wide].Load())
	}
	for line := range a.nodes {
		for name, w := range nodeWords(t, &a.nodes[line], false) {
			if w.Load() != 0 {
				t.Fatalf("line %d: %s = %#x after Reset", line, name, w.Load())
			}
		}
	}
	if got := a.Alloc(0); got != nodes[0] {
		t.Fatalf("first node after Reset = %d, want %d", got, nodes[0])
	}
	if got := a.AllocWide(0); got != pairs[0] || a.Node(got).Seq.Load() != pairSeq {
		t.Fatalf("first pair after Reset = %d (seq %#x), want %d live", got, a.Node(got).Seq.Load(), pairs[0])
	}
}

// TestConcurrentMixedAllocFree churns both classes across tids (run it
// under -race): freed slots cross shards, every slot keeps its class, and
// at quiescence nothing is live.
func TestConcurrentMixedAllocFree(t *testing.T) {
	const (
		workers = 6
		rounds  = 10_000
	)
	a := New(workers * 64)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			type slot struct {
				idx  ptr.Index
				pair bool
			}
			var held []slot
			for r := 0; r < rounds; r++ {
				if len(held) < 16 && rng.Intn(3) != 0 {
					s := slot{pair: rng.Intn(4) == 0}
					if s.pair {
						s.idx = a.AllocWide(w)
					} else {
						s.idx = a.Alloc(w)
					}
					if a.Wide(s.idx) != s.pair {
						t.Errorf("slot %d: Wide %v, allocated as pair %v", s.idx, !s.pair, s.pair)
						return
					}
					held = append(held, s)
					continue
				}
				if len(held) > 0 {
					i := rng.Intn(len(held))
					a.Free((w+1+r%2)%workers, held[i].idx)
					held[i] = held[len(held)-1]
					held = held[:len(held)-1]
				}
			}
			for _, s := range held {
				a.Free(w, s.idx)
			}
		}(w)
	}
	wg.Wait()
	if live := a.Live(); live != 0 {
		t.Fatalf("Live = %d after every slot was freed", live)
	}
	runtime.KeepAlive(a)
}
