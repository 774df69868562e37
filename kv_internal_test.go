package hyaline

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// acquireAll leases every session of l, failing the test if the
// scavenger cannot recover them all within the deadline (a broken
// scavenger makes acquire park forever once the bitmap runs dry).
func acquireAll(t *testing.T, l *leaser) []*kvSession {
	t.Helper()
	max := l.pool.MaxThreads()
	done := make(chan []*kvSession, 1)
	go func() {
		held := make([]*kvSession, 0, max)
		for len(held) < max {
			held = append(held, l.acquire())
		}
		done <- held
	}()
	select {
	case held := <-done:
		return held
	case <-time.After(10 * time.Second):
		t.Fatalf("acquiring all %d sessions hung: cached leases were not scavenged", max)
		return nil
	}
}

// TestKVScavengeStrandedCache strands cached sessions: after operations
// park sessions in the sync.Pool, the cache is replaced wholesale, so
// no cache.Get can ever return them — exactly the observable state of a
// lease stuck in another P's private slot. The byTid scavenge scan must
// still recover every lease, and the pool ledger must account for all
// of them.
func TestKVScavengeStrandedCache(t *testing.T) {
	kv, err := NewKV("hashmap", "hyaline", KVOptions{MaxThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Park sessions in the cache from several goroutines so more than
	// one tid ends up in the cached state.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				kv.Insert(uint64(g*1000+i), 1)
				kv.Delete(uint64(g * 1000))
			}
		}(g)
	}
	wg.Wait()

	// The unsharded KV is one shard; its leaser is the machinery under test.
	l := &kv.shards[0].leaser
	cached := 0
	for i := range l.byTid {
		if l.byTid[i].state.Load() == kvCached {
			cached++
		}
	}
	if cached == 0 {
		t.Fatal("no sessions parked in the cached state after churn")
	}
	// Strand every cached entry: the state words still say kvCached but
	// the sync.Pool holding the handles is gone.
	l.cache = sync.Pool{}

	held := acquireAll(t, l)
	if leased := l.pool.InUse(); leased != kv.MaxThreads() {
		t.Fatalf("ledger says %d tids leased with all %d sessions held", leased, kv.MaxThreads())
	}
	seen := map[int]bool{}
	for _, ks := range held {
		if seen[ks.s.Tid()] {
			t.Fatalf("tid %d recovered twice", ks.s.Tid())
		}
		seen[ks.s.Tid()] = true
		l.release(ks)
	}
}

// TestKVScavengeGCDroppedSessions drops the cached sessions the hard
// way: two GC cycles empty the sync.Pool (victim cache included), so
// the handles are only reachable through byTid. The scavenger must
// recover them and the ledger must return to full.
func TestKVScavengeGCDroppedSessions(t *testing.T) {
	kv, err := NewKV("hashmap", "hyaline", KVOptions{MaxThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				kv.Insert(uint64(g*1000+i), 1)
			}
		}(g)
	}
	wg.Wait()

	// Sessions stay leased in the bitmap while cached; the ledger must
	// already reflect that (this is the "strict lease ledger" the cache
	// comment promises).
	l := &kv.shards[0].leaser
	cached := 0
	for i := range l.byTid {
		if l.byTid[i].state.Load() == kvCached {
			cached++
		}
	}
	if leased := l.pool.InUse(); leased < cached {
		t.Fatalf("ledger says %d leased but %d sessions are cached", leased, cached)
	}

	runtime.GC()
	runtime.GC() // second cycle clears the sync.Pool victim cache

	held := acquireAll(t, l)
	if leased := l.pool.InUse(); leased != kv.MaxThreads() {
		t.Fatalf("ledger says %d tids leased with all %d sessions held", leased, kv.MaxThreads())
	}
	for _, ks := range held {
		l.release(ks)
	}

	// The KV must still work end to end after the recovery.
	if !kv.Insert(1<<40, 7) {
		t.Fatal("Insert after scavenge failed")
	}
	if v, ok := kv.Get(1 << 40); !ok || v != 7 {
		t.Fatalf("Get after scavenge = (%d, %v)", v, ok)
	}
}

// TestKVRangeDropsCallback: the chunk state of a scan lives in the
// leased session, which outlives the call in the per-P cache — so the
// caller's fn must be gone from it by the time Range returns, however it
// returns, or a cached session would pin whatever the closure captured.
func TestKVRangeDropsCallback(t *testing.T) {
	kv, err := NewKV("skiplist", "hyaline", KVOptions{MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 200; k++ {
		kv.Insert(k, k)
	}
	check := func(how string) {
		t.Helper()
		l := &kv.shards[0].leaser
		for i := range l.byTid {
			if l.byTid[i].fn != nil {
				t.Fatalf("session %d still holds the caller's fn after a Range that %s", i, how)
			}
		}
		if n := kv.InFlight(); n != 0 {
			t.Fatalf("%d leases in flight after a Range that %s", n, how)
		}
	}
	kv.Range(0, 199, func(_, _ uint64) bool { return true })
	check("ran to the end")
	kv.Range(0, 199, func(k, _ uint64) bool { return k < 100 })
	check("stopped early")
	func() {
		defer func() { recover() }()
		kv.Range(0, 199, func(k, _ uint64) bool {
			if k == 70 {
				panic("callback failed")
			}
			return true
		})
	}()
	check("panicked in fn")

	if size := unsafe.Sizeof(kvSession{}); size%64 != 0 {
		t.Fatalf("kvSession is %d bytes: neighbouring sessions share a cache line", size)
	}
}
