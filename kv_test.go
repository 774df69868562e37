package hyaline_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hyaline"
)

func kvChecksum(key uint64) uint64 { return key*31 + 7 }

// TestKVBasic pins single-goroutine semantics through the front-end.
func TestKVBasic(t *testing.T) {
	kv, err := hyaline.NewKV("hashmap", "hyaline", hyaline.KVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if kv.Scheme() != "hyaline" || kv.Structure() != "hashmap" {
		t.Fatalf("identity: %s/%s", kv.Scheme(), kv.Structure())
	}
	if _, ok := kv.Get(7); ok {
		t.Fatal("Get on empty KV succeeded")
	}
	if !kv.Insert(7, 70) || kv.Insert(7, 71) {
		t.Fatal("Insert semantics broken")
	}
	if v, ok := kv.Get(7); !ok || v != 70 {
		t.Fatalf("Get = (%d, %v)", v, ok)
	}
	if kv.Delete(8) || !kv.Delete(7) {
		t.Fatal("Delete semantics broken")
	}
	if kv.Len() != 0 {
		t.Fatalf("Len = %d after emptying", kv.Len())
	}
	if st := kv.Stats(); st.Allocated == 0 {
		t.Fatal("no allocations recorded")
	}
}

// TestKVAllSchemes runs concurrent churn through every scheme: the
// session wiring must be scheme-agnostic.
func TestKVAllSchemes(t *testing.T) {
	for _, scheme := range hyaline.Schemes() {
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			kv, err := hyaline.NewKV("hashmap", scheme, hyaline.KVOptions{MaxThreads: 4})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					for i := 0; i < 3000; i++ {
						key := uint64(rng.Intn(512))
						switch rng.Intn(3) {
						case 0:
							kv.Insert(key, kvChecksum(key))
						case 1:
							kv.Delete(key)
						default:
							if v, ok := kv.Get(key); ok && v != kvChecksum(key) {
								panic(fmt.Sprintf("%s: Get(%d) = %d, want %d", scheme, key, v, kvChecksum(key)))
							}
						}
					}
				}(g)
			}
			wg.Wait()
			kv.Flush()
			if kv.Len() < 0 || kv.Len() > 512 {
				t.Fatalf("Len = %d", kv.Len())
			}
		})
	}
}

// TestKVOversubscribed is the acceptance criterion: many more
// goroutines than MaxThreads call into one KV concurrently, each
// modeling its own key stripe exactly.
func TestKVOversubscribed(t *testing.T) {
	const (
		maxThreads = 4
		goroutines = 24
		keysPerG   = 128
		ops        = 4000
	)
	kv, err := hyaline.NewKV("hashmap", "hyaline", hyaline.KVOptions{MaxThreads: maxThreads})
	if err != nil {
		t.Fatal(err)
	}
	if kv.MaxThreads() != maxThreads {
		t.Fatalf("MaxThreads = %d", kv.MaxThreads())
	}
	errc := make(chan string, goroutines)
	models := make([]map[uint64]bool, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			model := map[uint64]bool{}
			models[g] = model
			for i := 0; i < ops; i++ {
				// Own-stripe keys: key % goroutines == g.
				key := uint64(rng.Intn(keysPerG))*goroutines + uint64(g)
				switch rng.Intn(3) {
				case 0:
					if got := kv.Insert(key, kvChecksum(key)); got == model[key] {
						errc <- fmt.Sprintf("g %d: Insert(%d)=%v, model %v", g, key, got, model[key])
						return
					}
					model[key] = true
				case 1:
					if got := kv.Delete(key); got != model[key] {
						errc <- fmt.Sprintf("g %d: Delete(%d)=%v, model %v", g, key, got, model[key])
						return
					}
					model[key] = false
				default:
					v, ok := kv.Get(key)
					if ok != model[key] || (ok && v != kvChecksum(key)) {
						errc <- fmt.Sprintf("g %d: Get(%d)=(%d,%v), model %v", g, key, v, ok, model[key])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for e := range errc {
		t.Fatal(e)
	}

	want := 0
	for g, model := range models {
		for key, present := range model {
			v, ok := kv.Get(key)
			if ok != present || (ok && v != kvChecksum(key)) {
				t.Fatalf("g %d: post-churn key %d present=%v want %v", g, key, ok, present)
			}
			if present {
				want++
			}
		}
	}
	if got := kv.Len(); got != want {
		t.Fatalf("Len = %d, models say %d", got, want)
	}

	kv.Flush()
	st := kv.Stats()
	if un := st.Unreclaimed(); un > 4096 {
		t.Fatalf("%d nodes unreclaimed after Flush", un)
	}
	// Every live node is a map entry or awaiting reclamation.
	if live := kv.Live(); int64(live) < st.Unreclaimed() ||
		int64(live) > st.Unreclaimed()+int64(2*kv.Len()+64) {
		t.Fatalf("Live = %d outside plausible range (len %d, stats %+v)", live, kv.Len(), st)
	}
}

// TestKVRange covers the Range surface: ordered structures scan,
// unordered ones report a descriptive error.
func TestKVRange(t *testing.T) {
	kv, err := hyaline.NewKV("skiplist", "hyaline-s", hyaline.KVOptions{MaxThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 100; k++ {
		kv.Insert(k, kvChecksum(k))
	}
	var got []uint64
	if err := kv.Range(10, 19, func(k, v uint64) bool {
		if v != kvChecksum(k) {
			t.Fatalf("Range saw (%d, %d)", k, v)
		}
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("Range visited %v", got)
	}

	unordered, err := hyaline.NewKV("hashmap", "epoch", hyaline.KVOptions{MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := unordered.Range(0, 10, func(_, _ uint64) bool { return true }); err == nil {
		t.Fatal("Range on hashmap must error")
	}
}

// TestKVRangeChunkBoundaries drives the chunked scan across its Trim
// boundary (every 64 visited keys) in every way the per-session chunk
// state can get wrong: scans that end short of, exactly at and beyond a
// chunk, callbacks that stop on either side of the boundary, and back to
// back scans on one session, whose state must start clean each time.
func TestKVRangeChunkBoundaries(t *testing.T) {
	for _, structure := range []string{"skiplist", "list"} {
		// One tid: every scan reuses the same session.
		kv, err := hyaline.NewKV(structure, "hyaline", hyaline.KVOptions{MaxThreads: 1})
		if err != nil {
			t.Fatal(err)
		}
		const n = 300
		for k := uint64(0); k < n; k++ {
			kv.Insert(2*k, kvChecksum(2*k)) // even keys
		}
		for _, c := range []struct {
			lo, hi uint64
			stop   int // fn returns false at this many keys; 0 = never
			want   int
		}{
			{0, ^uint64(0), 0, n},
			{0, 2*63 - 1, 0, 63},
			{0, 2 * 63, 0, 64},
			{0, 2*64 + 1, 0, 65},
			{100, 100 + 2*128 - 2, 0, 128},
			{0, ^uint64(0), 1, 1},
			{0, ^uint64(0), 63, 63},
			{0, ^uint64(0), 64, 64},
			{0, ^uint64(0), 65, 65},
			{7, ^uint64(0), 200, 200},
			{2 * n, ^uint64(0), 0, 0},
		} {
			var got []uint64
			err := kv.Range(c.lo, c.hi, func(k, v uint64) bool {
				if v != kvChecksum(k) {
					t.Fatalf("%s: Range saw (%d, %d)", structure, k, v)
				}
				got = append(got, k)
				return len(got) != c.stop
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != c.want {
				t.Fatalf("%s: Range(%d, %d) stopping at %d visited %d keys, want %d", structure, c.lo, c.hi, c.stop, len(got), c.want)
			}
			first := (c.lo + 1) / 2 * 2
			for i, k := range got {
				if k != first+2*uint64(i) {
					t.Fatalf("%s: Range(%d, %d) key %d is %d, want %d", structure, c.lo, c.hi, i, k, first+2*uint64(i))
				}
			}
		}
		if n := kv.InFlight(); n != 0 {
			t.Fatalf("%s: %d leases in flight after scans", structure, n)
		}
	}
}

// rangeWithin runs kv.Range(lo, hi, fn) and fails the test if it has
// not returned within a generous deadline: a callback that waits on a
// lease the scan still holds would otherwise hang the suite.
func rangeWithin(t *testing.T, kv *hyaline.KV, lo, hi uint64, fn func(k, v uint64) bool) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- kv.Range(lo, hi, fn) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Range did not return: its callback is waiting for a lease the scan holds")
	}
}

// TestKVRangeCallbackReentersKV: fn runs with no lease held, so it may
// call back into the KV — even at MaxThreads 1, where a scan that kept
// its lease across fn would deadlock on the first nested operation.
func TestKVRangeCallbackReentersKV(t *testing.T) {
	for _, shards := range []int{1, 2} {
		kv := mustShardedKV(t, "skiplist", "hyaline", shards, hyaline.KVOptions{MaxThreads: 1})
		const n = 200 // several chunks per shard
		for k := uint64(0); k < n; k++ {
			kv.Insert(k, kvChecksum(k))
		}
		visited := 0
		rangeWithin(t, kv, 0, n-1, func(k, v uint64) bool {
			if got, ok := kv.Get(k); !ok || got != v {
				t.Errorf("%d shards: Get(%d) inside Range = (%d, %v), want (%d, true)", shards, k, got, ok, v)
			}
			if !kv.Insert(k+n, kvChecksum(k+n)) { // above the scanned range
				t.Errorf("%d shards: Insert(%d) inside Range failed", shards, k+n)
			}
			visited++
			return true
		})
		if visited != n {
			t.Fatalf("%d shards: Range visited %d keys, want %d", shards, visited, n)
		}
		if got := kv.Len(); got != 2*n {
			t.Fatalf("%d shards: Len = %d after the nested inserts, want %d", shards, got, 2*n)
		}
	}
}

// TestKVRangeCallbackHoldsNoLease: every chunk's lease is returned
// before its keys reach fn, so no lease is in flight while fn runs.
func TestKVRangeCallbackHoldsNoLease(t *testing.T) {
	for _, shards := range []int{1, 2} {
		kv := mustShardedKV(t, "skiplist", "hyaline", shards, hyaline.KVOptions{MaxThreads: 4})
		for k := uint64(0); k < 300; k++ {
			kv.Insert(k, kvChecksum(k))
		}
		visited := 0
		rangeWithin(t, kv, 0, 299, func(k, _ uint64) bool {
			if n := kv.InFlight(); n != 0 {
				t.Errorf("%d shards: %d leases in flight inside fn at key %d", shards, n, k)
				return false
			}
			visited++
			return true
		})
		if visited != 300 {
			t.Errorf("%d shards: Range visited %d keys, want 300", shards, visited)
		}
	}
}

// TestKVRangePanicLeavesNoLease: a panicking fn unwinds through Range
// with nothing to release, leaving no lease in flight and the KV usable.
func TestKVRangePanicLeavesNoLease(t *testing.T) {
	for _, shards := range []int{1, 2} {
		kv := mustShardedKV(t, "skiplist", "hyaline", shards, hyaline.KVOptions{MaxThreads: 1})
		for k := uint64(0); k < 200; k++ {
			kv.Insert(k, kvChecksum(k))
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%d shards: the callback's panic did not reach the caller", shards)
				}
			}()
			kv.Range(0, 199, func(k, _ uint64) bool {
				if k == 70 {
					panic("callback failed")
				}
				return true
			})
		}()
		if n := kv.InFlight(); n != 0 {
			t.Fatalf("%d shards: %d leases in flight after a Range whose fn panicked", shards, n)
		}
		visited := 0
		rangeWithin(t, kv, 0, 199, func(_, _ uint64) bool { visited++; return true })
		if visited != 200 {
			t.Fatalf("%d shards: Range after the panic visited %d keys, want 200", shards, visited)
		}
	}
}

func TestKVErrors(t *testing.T) {
	if _, err := hyaline.NewKV("hashmap", "no-such-scheme", hyaline.KVOptions{}); err == nil {
		t.Fatal("unknown scheme must error")
	}
	if _, err := hyaline.NewKV("no-such-structure", "hyaline", hyaline.KVOptions{}); err == nil {
		t.Fatal("unknown structure must error")
	}
	// The paper's structure×scheme exclusions surface at construction.
	if _, err := hyaline.NewKV("bonsai", "hp", hyaline.KVOptions{}); err == nil {
		t.Fatal("bonsai over hp must error")
	}
}

// TestNewKVRejectsBeforeAllocating is the uint64 family's twin of
// TestNewKVBytesRejectsBeforeAllocating: an unknown structure or scheme,
// or an excluded pair, fails before any shard's arena is built.
func TestNewKVRejectsBeforeAllocating(t *testing.T) {
	combos := []struct{ structure, scheme string }{
		{"no-such-structure", "hyaline"},
		{"hashmap", "no-such-scheme"},
		{"no-such-structure", "no-such-scheme"},
		{"bonsai", "hp"},
	}
	for _, c := range combos {
		for _, shards := range []int{1, 2} {
			name := fmt.Sprintf("NewShardedKV(%q, %q, %d)", c.structure, c.scheme, shards)
			rejectsBeforeAllocating(t, name, func() error {
				kv, err := hyaline.NewShardedKV(c.structure, c.scheme, shards, hyaline.KVOptions{MaxThreads: 8, ArenaCap: 1 << 20})
				if kv != nil {
					t.Fatalf("%s returned a KV alongside the error", name)
				}
				return err
			})
		}
	}
}

// TestKVGetAllocFree is the acceptance criterion for the per-P session
// cache: the Get hot path — lease, enter, read, leave, release — must
// not touch the Go heap.
func TestKVGetAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	kv, err := hyaline.NewKV("hashmap", "hyaline", hyaline.KVOptions{MaxThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 1024; k++ {
		kv.Insert(k, kvChecksum(k))
	}
	key := uint64(0)
	avg := testing.AllocsPerRun(1000, func() {
		kv.Get(key)
		key = (key + 1) % 2048
	})
	if avg != 0 {
		t.Fatalf("Get allocates %.2f objects/op, want 0", avg)
	}
}

// BenchmarkKVGet measures the leased read path against the explicit-tid
// baseline cost; -benchmem documents the allocation-free hot path.
func BenchmarkKVGet(b *testing.B) {
	kv, err := hyaline.NewKV("hashmap", "hyaline", hyaline.KVOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for k := uint64(0); k < 10_000; k++ {
		kv.Insert(k, kvChecksum(k))
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(rand.Int63()))
		for pb.Next() {
			kv.Get(uint64(rng.Intn(20_000)))
		}
	})
}

// BenchmarkKVRange64 is the repository benchmark's scan: 64 consecutive
// keys out of 50 000 on an unsharded skiplist, with a callback built once
// — so allocs/op is what Range itself costs.
func BenchmarkKVRange64(b *testing.B) {
	kv, err := hyaline.NewKV("skiplist", "hyaline", hyaline.KVOptions{})
	if err != nil {
		b.Fatal(err)
	}
	const n = 50_000
	for k := uint64(0); k < n; k++ {
		kv.Insert(k, kvChecksum(k))
	}
	var sum uint64
	fn := func(k, v uint64) bool { sum += v; return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := uint64(i) * 7919 % (n - 64)
		kv.Range(lo, lo+63, fn)
	}
}

// TestKVRangeLongScanBounded: a long Range must not pin reclamation
// for its whole duration. Range opens a bracket only to pull one chunk
// of keys and calls fn with every bracket closed, so a scan pins at most
// one chunk's traversal and none of the retires made while fn runs. The
// churn is driven in lockstep from inside the scan callback (via a
// helper goroutine, standing in for the store's other users), so the
// retire volume per visited key is fixed by construction and the bound
// is deterministic: free-running churners
// would spike the gauge whenever a goroutine is preempted mid-bracket,
// drowning the signal this test is after. The tracker-level twin with
// an unchunked-scan control is dstest.ScanPinning.
func TestKVRangeLongScanBounded(t *testing.T) {
	kv, err := hyaline.NewKV("skiplist", "hyaline", hyaline.KVOptions{
		MaxThreads: 4,
		ArenaCap:   1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The scanned population: static keys the churn never touches.
	scanKeys := uint64(4096)
	if testing.Short() {
		scanKeys = 2048
	}
	for k := uint64(0); k < scanKeys; k++ {
		kv.Insert(k, kvChecksum(k))
	}

	// The churner runs pairsPerVisit insert+delete cycles on a disjoint
	// high stripe each time the scan callback asks, then hands control
	// back. While it runs, the scanner is parked mid-callback: the
	// pinning scenario, were fn called inside a bracket.
	const pairsPerVisit = 8
	req := make(chan struct{})
	ack := make(chan struct{})
	go func() {
		var cursor uint64
		for range req {
			for j := 0; j < pairsPerVisit; j++ {
				key := uint64(1<<40) + cursor%512
				cursor++
				kv.Insert(key, kvChecksum(key))
				kv.Delete(key)
			}
			ack <- struct{}{}
		}
	}()
	defer close(req)

	var maxUnreclaimed int64
	visited := uint64(0)
	err = kv.Range(0, scanKeys-1, func(k, v uint64) bool {
		if v != kvChecksum(k) {
			t.Errorf("Range saw (%d, %d)", k, v)
			return false
		}
		visited++
		req <- struct{}{}
		<-ack
		if un := kv.Stats().Unreclaimed(); un > maxUnreclaimed {
			maxUnreclaimed = un
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != scanKeys {
		t.Fatalf("scan visited %d static keys, want %d", visited, scanKeys)
	}
	// Total churn is scanKeys*pairsPerVisit retires (32k); a scan that
	// held one bracket throughout would sample unreclaimed counts of
	// that order. Chunked pulls leave the scheme's batching slack.
	const bound = 4096
	if maxUnreclaimed > bound {
		t.Fatalf("unreclaimed reached %d mid-scan (bound %d, total churn %d): the scan bracket is pinning reclamation",
			maxUnreclaimed, bound, scanKeys*pairsPerVisit)
	}
	if n := kv.InFlight(); n != 0 {
		t.Fatalf("%d leases in flight after scans", n)
	}
}

// BenchmarkKVMixed is the write-heavy mix through the session layer,
// oversubscribed: 4×GOMAXPROCS goroutines over 2×GOMAXPROCS tids.
func BenchmarkKVMixed(b *testing.B) {
	kv, err := hyaline.NewKV("hashmap", "hyaline", hyaline.KVOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for k := uint64(0); k < 10_000; k++ {
		kv.Insert(k, kvChecksum(k))
	}
	b.ReportAllocs()
	b.SetParallelism(4) // 4×GOMAXPROCS goroutines
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(rand.Int63()))
		for pb.Next() {
			key := uint64(rng.Intn(20_000))
			switch rng.Intn(4) {
			case 0:
				kv.Insert(key, kvChecksum(key))
			case 1:
				kv.Delete(key)
			default:
				kv.Get(key)
			}
		}
	})
}
