package skiplist

import (
	"math/rand"
	"sort"
	"testing"

	"hyaline/internal/arena"
	"hyaline/internal/dstest"
	"hyaline/internal/ptr"
	"hyaline/internal/smr"
	"hyaline/internal/trackers"
)

func factory(a *arena.Arena, tr smr.Tracker) dstest.Map {
	return New(a, tr, 64)
}

func TestAllSchemes(t *testing.T) {
	dstest.RunAll(t, factory, dstest.Options{KeySpace: 512})
}

func TestFreedReads(t *testing.T) {
	dstest.FreedReads(t, factory, dstest.Options{KeySpace: 512})
}

func TestKeysStaySorted(t *testing.T) {
	a := arena.New(1 << 12)
	tr := trackers.MustNew("leaky", a, trackers.Config{MaxThreads: 1})
	s := New(a, tr, 1)
	// Insertion order deliberately scrambled.
	for _, k := range []uint64{17, 3, 99, 4, 250, 1, 42, 8, 77} {
		tr.Enter(0)
		if !s.Insert(0, k, k) {
			t.Fatalf("Insert(%d) failed", k)
		}
		tr.Leave(0)
	}
	keys := s.Keys()
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatalf("keys out of order: %v", keys)
	}
	if len(keys) != 9 {
		t.Fatalf("Keys() returned %d keys", len(keys))
	}
}

func TestTowerHeightDistribution(t *testing.T) {
	a := arena.New(1 << 14)
	tr := trackers.MustNew("leaky", a, trackers.Config{MaxThreads: 1})
	s := New(a, tr, 1)
	const n = 4096
	for k := uint64(0); k < n; k++ {
		tr.Enter(0)
		s.Insert(0, k, k)
		tr.Leave(0)
	}
	counts := make([]int, MaxHeight+1)
	for k := uint64(0); k < n; k++ {
		h := s.Height(k)
		if h < 1 || h > MaxHeight {
			t.Fatalf("key %d has height %d outside [1,%d]", k, h, MaxHeight)
		}
		counts[h]++
	}
	// Geometric(1/4): roughly three quarters of the towers stop at each
	// level. Demand only the gross shape so the test is seed-independent.
	if counts[1] < n/4 {
		t.Fatalf("height-1 towers: %d of %d, want the bulk", counts[1], n)
	}
	if counts[2] == 0 || counts[3] == 0 {
		t.Fatal("no multi-level towers built; upper links untested")
	}
	if counts[1] <= counts[3] {
		t.Fatalf("height distribution not decreasing: %v", counts)
	}
}

func TestRange(t *testing.T) {
	a := arena.New(1 << 14)
	tr := trackers.MustNew("hp", a, trackers.Config{MaxThreads: 1})
	s := New(a, tr, 1)
	for k := uint64(0); k < 1000; k += 2 { // even keys only
		tr.Enter(0)
		s.Insert(0, k, k*31+7)
		tr.Leave(0)
	}
	collect := func(lo, hi uint64) (keys []uint64) {
		tr.Enter(0)
		defer tr.Leave(0)
		s.Range(0, lo, hi, func(k, v uint64) bool {
			if v != k*31+7 {
				t.Fatalf("key %d carries value %d", k, v)
			}
			keys = append(keys, k)
			return true
		})
		return
	}
	keys := collect(100, 200)
	if len(keys) != 51 || keys[0] != 100 || keys[50] != 200 {
		t.Fatalf("Range[100,200]: %d keys, first %d, last %d", len(keys), keys[0], keys[len(keys)-1])
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("scan out of order: %v", keys)
		}
	}
	// Odd bounds exclude the absent endpoints.
	if keys := collect(101, 199); len(keys) != 49 || keys[0] != 102 || keys[48] != 198 {
		t.Fatalf("Range[101,199] = %d keys [%d..%d]", len(keys), keys[0], keys[len(keys)-1])
	}
	if keys := collect(500, 400); len(keys) != 0 {
		t.Fatalf("inverted range returned %v", keys)
	}
	// The maximum key is reachable without the cursor overflowing.
	maxKey := ^uint64(0)
	tr.Enter(0)
	s.Insert(0, maxKey, maxKey*31+7)
	tr.Leave(0)
	if keys := collect(^uint64(0), ^uint64(0)); len(keys) != 1 || keys[0] != ^uint64(0) {
		t.Fatalf("max-key range = %v", keys)
	}
	// Early termination.
	n := 0
	tr.Enter(0)
	s.Range(0, 0, ^uint64(0), func(_, _ uint64) bool { n++; return n < 5 })
	tr.Leave(0)
	if n != 5 {
		t.Fatalf("early-terminated scan visited %d keys", n)
	}
}

// TestRandomHeightDistribution draws directly from the tower-height
// generator and pins it to the geometric(1/4) law: heights stay within
// [1, arena.MaxLinks] (a taller tower would index past the node's link
// words), and the per-level frequencies match 3/4 · 4^-(level-1) within
// a tolerance far wider than the deterministic generator's deviation.
func TestRandomHeightDistribution(t *testing.T) {
	a := arena.New(64)
	tr := trackers.MustNew("leaky", a, trackers.Config{MaxThreads: 4})
	s := New(a, tr, 4)

	const draws = 200_000
	counts := make([]int, MaxHeight+2)
	for tid := 0; tid < 4; tid++ {
		for i := 0; i < draws/4; i++ {
			h := s.randomHeight(tid)
			if h < 1 || h > arena.MaxLinks {
				t.Fatalf("randomHeight = %d outside [1, %d]", h, arena.MaxLinks)
			}
			counts[h]++
		}
	}
	if MaxHeight != arena.MaxLinks {
		t.Fatalf("MaxHeight %d != arena.MaxLinks %d", MaxHeight, arena.MaxLinks)
	}
	// Geometric(1/4): P(h) = 3/4 · 4^-(h-1) for h < MaxHeight (0.75,
	// 0.1875, ...); the top level absorbs the tail, P(MaxHeight) =
	// 4^-(MaxHeight-1).
	for h := 1; h <= MaxHeight; h++ {
		reach := 1.0 / float64(int(1)<<(2*(h-1))) // P(height >= h)
		want := 0.75 * reach
		if h == MaxHeight {
			want = reach
		}
		got := float64(counts[h]) / draws
		// ~3σ for the binomial at p=0.75 is about 0.003; 0.02 allows for
		// the xorshift generator's bias without hiding a broken geometry
		// (1/2 promotion misses level 1 by 0.25).
		if diff := got - want; diff < -0.02 || diff > 0.02 {
			t.Fatalf("height %d frequency %.4f, want %.4f±0.02 (counts %v)", h, got, want, counts)
		}
	}
	for h := 1; h < 5; h++ {
		if counts[h] <= counts[h+1] {
			t.Fatalf("height frequencies not decreasing at %d: %v", h, counts)
		}
	}
}

// TestSearchCost pins what the 1/4 towers buy at the key count the
// repository benchmark runs: the descent find makes, replayed here with
// plain loads at quiescence, examines a few nodes per level rather than
// walking a long top level (p = 1/2 tops out at 2^8 keys and visits ~200
// nodes per search at 50 000).
func TestSearchCost(t *testing.T) {
	const n = 50_000
	a := arena.New(1 << 16)
	tr := trackers.MustNew("leaky", a, trackers.Config{MaxThreads: 1})
	s := New(a, tr, 1)
	rng := rand.New(rand.NewSource(1))
	for inserted := 0; inserted < n; {
		tr.Enter(0)
		if s.Insert(0, rng.Uint64(), 0) {
			inserted++
		}
		tr.Leave(0)
	}

	top := MaxHeight - 1
	for top > 0 && ptr.IsNil(s.head[top].Load()) {
		top--
	}
	topNodes := 0
	for w := s.head[top].Load(); !ptr.IsNil(w); w = a.Deref(w).Link(top).Load() {
		topNodes++
	}
	if topNodes > 16 {
		t.Fatalf("top occupied level %d holds %d nodes, want <= 16", top, topNodes)
	}

	// visits counts the nodes whose key a search for key examines: find's
	// descent without the protection and helping, which change nothing at
	// quiescence.
	visits := func(key uint64) int {
		seen := 0
		var prev *arena.Node // nil = head
		for level := MaxHeight - 1; level >= 0; level-- {
			link := &s.head[level]
			if prev != nil {
				link = prev.Link(level)
			}
			for w := link.Load(); !ptr.IsNil(w); w = link.Load() {
				cn := a.Deref(w)
				seen++
				if cn.Key.Load() >= key {
					break
				}
				prev, link = cn, cn.Link(level)
			}
		}
		return seen
	}
	const searches = 1000
	total := 0
	for i := 0; i < searches; i++ {
		total += visits(rng.Uint64())
	}
	if mean := float64(total) / searches; mean > 40 {
		t.Fatalf("mean node visits per search = %.1f over %d keys, want <= 40", mean, n)
	} else {
		t.Logf("mean node visits per search: %.1f (top level %d holds %d nodes)", mean, top, topNodes)
	}
}

// TestDeleteDrainsAllLevels verifies the exactly-once retire protocol on
// a pointer-based scheme: after deleting every key and flushing, every
// tower — including the multi-level ones — must have been unlinked from
// all of its levels and handed back to the arena.
func TestDeleteDrainsAllLevels(t *testing.T) {
	a := arena.New(1 << 12)
	tr := trackers.MustNew("hp", a, trackers.Config{MaxThreads: 1})
	s := New(a, tr, 1)
	const n = 512
	for k := uint64(0); k < n; k++ {
		tr.Enter(0)
		s.Insert(0, k, k*2)
		tr.Leave(0)
	}
	for k := uint64(0); k < n; k++ {
		tr.Enter(0)
		if !s.Delete(0, k) {
			t.Fatalf("Delete(%d) failed", k)
		}
		tr.Leave(0)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", s.Len())
	}
	for level := 0; level < MaxHeight; level++ {
		if w := s.head[level].Load(); !ptr.IsNil(w) {
			t.Fatalf("head[%d] still links a node after full drain", level)
		}
	}
	tr.(smr.Flusher).Flush(0)
	st := tr.Stats()
	if st.Unreclaimed() != 0 {
		t.Fatalf("%d nodes unreclaimed after drain+flush (stats %+v)",
			st.Unreclaimed(), st)
	}
	if live := a.Live(); live != 0 {
		t.Fatalf("arena still holds %d live nodes", live)
	}
}

// TestMaskRetiresOnce pins the protocol invariant the arena enforces by
// panicking on double free: churn on few keys under a scheme that frees
// eagerly must never retire a tower twice nor free one early.
func TestMaskRetiresOnce(t *testing.T) {
	a := arena.New(1 << 12)
	tr := trackers.MustNew("hp", a, trackers.Config{MaxThreads: 1, ScanThreshold: 1})
	s := New(a, tr, 1)
	for i := 0; i < 5000; i++ {
		k := uint64(i % 7)
		tr.Enter(0)
		s.Insert(0, k, k)
		tr.Leave(0)
		tr.Enter(0)
		s.Delete(0, k)
		tr.Leave(0)
	}
	tr.(smr.Flusher).Flush(0)
	if live, ln := a.Live(), s.Len(); live != int64(ln) {
		t.Fatalf("arena live %d != structure size %d", live, ln)
	}
}

// BenchmarkSkipListGet50k is the search the repository benchmark's
// kv_mixed workload leans on: Get on 50 000 keys under hyaline.
func BenchmarkSkipListGet50k(b *testing.B) {
	const n = 50_000
	a := arena.New(1 << 17)
	tr := trackers.MustNew("hyaline", a, trackers.Config{MaxThreads: 1})
	s := New(a, tr, 1)
	keys := make([]uint64, n)
	rng := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = rng.Uint64()
		tr.Enter(0)
		s.Insert(0, keys[i], keys[i])
		tr.Leave(0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Enter(0)
		if _, ok := s.Get(0, keys[i%n]); !ok {
			b.Fatalf("Get(%d) missed", keys[i%n])
		}
		tr.Leave(0)
	}
}
