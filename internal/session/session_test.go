package session

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"hyaline/internal/arena"
	"hyaline/internal/smr"
	"hyaline/internal/trackers"
)

func newPool(t testing.TB, scheme string, max int) (*Pool, *arena.Arena) {
	t.Helper()
	a := arena.New(1 << 16)
	tr, err := trackers.New(scheme, a, trackers.Config{MaxThreads: max, Slots: 4, MinBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	return NewPool(tr, max), a
}

// withProcs runs f with GOMAXPROCS at least n, so several per-P caches
// hold sessions at once and leases migrate between them.
func withProcs(t testing.TB, n int, f func()) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		defer runtime.GOMAXPROCS(prev)
	}
	f()
}

func TestAcquireReleasesDistinctTids(t *testing.T) {
	const max = 70
	p, _ := newPool(t, "leaky", max)
	seen := make(map[int]bool)
	held := make([]*Session, 0, max)
	for i := 0; i < max; i++ {
		s := p.tryAcquire()
		if s == nil {
			t.Fatalf("tryAcquire failed with %d/%d leased", i, max)
		}
		if seen[s.Tid()] {
			t.Fatalf("tid %d leased twice", s.Tid())
		}
		if s.Tid() < 0 || s.Tid() >= max {
			t.Fatalf("tid %d outside [0, %d)", s.Tid(), max)
		}
		seen[s.Tid()] = true
		held = append(held, s)
	}
	if p.tryAcquire() != nil {
		t.Fatal("tryAcquire succeeded on an exhausted pool")
	}
	if got := p.InUse(); got != max {
		t.Fatalf("InUse = %d, want %d", got, max)
	}
	for _, s := range held {
		p.Release(s)
	}
	if got := p.InUse(); got != 0 {
		t.Fatalf("InUse = %d after releasing everything", got)
	}
}

func TestAcquireBlocksUntilRelease(t *testing.T) {
	p, _ := newPool(t, "leaky", 1)
	s := p.Acquire()
	got := make(chan *Session)
	go func() { got <- p.Acquire() }()
	// The waiter must park (pool exhausted) and wake on Release.
	p.Release(s)
	s2 := <-got
	if s2.Tid() != 0 {
		t.Fatalf("woken waiter got tid %d", s2.Tid())
	}
	p.Release(s2)
}

// churnExclusive runs goroutines lease/alloc/retire loops over a pool of
// max tids with GOMAXPROCS at least procs, failing if any tid is ever
// held by two goroutines at once, and checks the pool and tracker
// accounting at quiescence. Run with -race for the full check.
func churnExclusive(t *testing.T, scheme string, max, goroutines, procs int) {
	t.Helper()
	const rounds = 2000
	withProcs(t, procs, func() {
		p, _ := newPool(t, scheme, max)
		owners := make([]atomic.Int32, max)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					p.Do(func(s *Session) {
						if n := owners[s.Tid()].Add(1); n != 1 {
							t.Errorf("%s: tid %d held by %d goroutines", scheme, s.Tid(), n)
						}
						s.Enter()
						s.Retire(s.Alloc())
						s.Leave()
						owners[s.Tid()].Add(-1)
					})
				}
			}()
		}
		wg.Wait()
		if got := p.InUse(); got != 0 {
			t.Fatalf("%s: InUse = %d at quiescence", scheme, got)
		}
		p.Flush()
		// Flush pads partial batches with dummy nodes, so lower bounds only.
		st := p.Tracker().Stats()
		if want := int64(goroutines * rounds); st.Allocated < want || st.Retired < want {
			t.Fatalf("%s: stats %+v, want >= %d allocated+retired", scheme, st, want)
		}
	})
}

// TestOversubscribedChurn runs far more goroutines than tids over
// several Ps, so sessions migrate between per-P caches, stale cached
// handles lose their held CAS to the recovery scan, and goroutines park
// and wake: every lease must stay exclusive.
func TestOversubscribedChurn(t *testing.T) {
	churnExclusive(t, "hyaline", 4, 32, 4)
}

// TestStealOnEmptyNeverDoubleLeases gives every tid its own P, so a
// goroutine whose P cache is empty takes a tid through the recovery scan
// while other Ps still cache that session's handle: the stale handle
// must lose its held CAS rather than lease the tid a second time.
func TestStealOnEmptyNeverDoubleLeases(t *testing.T) {
	churnExclusive(t, "epoch", 6, 24, 6)
}

// TestAffineChurnStaysExclusive keeps more tids than Ps, so most
// acquires are per-P cache hits that return a session to the P that
// released it, while the rest migrate: the cache-hit path must stay as
// exclusive as the scan.
func TestAffineChurnStaysExclusive(t *testing.T) {
	churnExclusive(t, "epoch", 8, 24, 4)
}

// TestShardedExhaustionParksAndWakes exhausts the pool, waits until a
// waiter has parked, and checks that releasing the highest tid — the
// last one the recovery scan reaches — wakes it with that tid.
func TestShardedExhaustionParksAndWakes(t *testing.T) {
	const max = 8
	p, _ := newPool(t, "leaky", max)

	held := make([]*Session, 0, max)
	for i := 0; i < max; i++ {
		s := p.tryAcquire()
		if s == nil {
			t.Fatalf("tryAcquire failed with %d/%d leased", i, max)
		}
		held = append(held, s)
	}
	if p.tryAcquire() != nil {
		t.Fatal("tryAcquire succeeded with every tid held")
	}

	got := make(chan *Session)
	go func() { got <- p.Acquire() }()
	for p.waiters.Load() == 0 {
		runtime.Gosched()
	}

	var last *Session
	for _, s := range held {
		if last == nil || s.Tid() > last.Tid() {
			last = s
		}
	}
	p.Release(last)
	woken := <-got
	if woken.Tid() != last.Tid() {
		t.Fatalf("woken waiter leased tid %d, want %d", woken.Tid(), last.Tid())
	}
	p.Release(woken)
	for _, s := range held {
		if s != last {
			p.Release(s)
		}
	}
	if n := p.InUse(); n != 0 {
		t.Fatalf("InUse = %d after releasing everything", n)
	}
}

// churnIntoCache leaves released sessions in p's cache from several
// goroutines.
func churnIntoCache(p *Pool) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p.Do(func(s *Session) {
					s.Enter()
					s.Retire(s.Alloc())
					s.Leave()
				})
			}
		}()
	}
	wg.Wait()
}

// acquireAll leases every tid of p before a deadline (a tid only the
// cache could hand out would make Acquire park forever), checks that the
// tids are distinct and that InUse reads MaxThreads, then releases them
// and checks that InUse reads 0.
func acquireAll(t *testing.T, p *Pool) {
	t.Helper()
	max := p.MaxThreads()
	done := make(chan []*Session, 1)
	go func() {
		held := make([]*Session, 0, max)
		for len(held) < max {
			held = append(held, p.Acquire())
		}
		done <- held
	}()
	var held []*Session
	select {
	case held = <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("acquiring all %d tids hung: a released session was not recovered", max)
	}
	seen := map[int]bool{}
	for _, s := range held {
		if seen[s.Tid()] {
			t.Fatalf("tid %d leased twice", s.Tid())
		}
		seen[s.Tid()] = true
	}
	if n := p.InUse(); n != max {
		t.Fatalf("InUse = %d with all %d tids held", n, max)
	}
	for _, s := range held {
		p.Release(s)
	}
	if n := p.InUse(); n != 0 {
		t.Fatalf("InUse = %d after releasing everything", n)
	}
}

// TestAcquireRecoversStrandedCache replaces the cache wholesale after
// churn, so no cache.Get can return the released sessions again — the
// observable state of a session stuck in another P's private slot. The
// recovery scan must still lease every tid.
func TestAcquireRecoversStrandedCache(t *testing.T) {
	p, _ := newPool(t, "hyaline", 4)
	churnIntoCache(p)
	p.cache = sync.Pool{}
	acquireAll(t, p)
}

// TestAcquireRecoversGCDroppedSessions drops the cached sessions the
// hard way: two GC cycles empty the sync.Pool, victim cache included.
func TestAcquireRecoversGCDroppedSessions(t *testing.T) {
	p, _ := newPool(t, "hyaline", 4)
	churnIntoCache(p)
	runtime.GC()
	runtime.GC() // the second cycle clears the sync.Pool victim cache
	acquireAll(t, p)
	churnIntoCache(p) // and the pool still leases under churn
	if n := p.InUse(); n != 0 {
		t.Fatalf("InUse = %d after churn", n)
	}
}

// TestFlushDuringChurn calls Flush in a loop while 3×max goroutines
// cycle leases. Flush leases every tid before draining any, so it never
// flushes a tid another goroutine holds, and it neither deadlocks
// against the churn nor leaks a lease.
func TestFlushDuringChurn(t *testing.T) {
	const max, rounds = 4, 1000
	for _, scheme := range []string{"hyaline", "hp"} {
		p, _ := newPool(t, scheme, max)
		owners := make([]atomic.Int32, max)
		var churn sync.WaitGroup
		for g := 0; g < 3*max; g++ {
			churn.Add(1)
			go func() {
				defer churn.Done()
				for i := 0; i < rounds; i++ {
					p.Do(func(s *Session) {
						if n := owners[s.Tid()].Add(1); n != 1 {
							t.Errorf("%s: tid %d held by %d goroutines", scheme, s.Tid(), n)
						}
						s.Enter()
						s.Retire(s.Alloc())
						s.Leave()
						owners[s.Tid()].Add(-1)
					})
				}
			}()
		}
		stop := make(chan struct{})
		flusher := make(chan struct{})
		go func() {
			defer close(flusher)
			for {
				p.Flush()
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
		done := make(chan struct{})
		go func() {
			churn.Wait()
			close(stop)
			<-flusher
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: churn beside a looping Flush did not finish", scheme)
		}
		if n := p.InUse(); n != 0 {
			t.Fatalf("%s: InUse = %d after churn and Flush", scheme, n)
		}
	}

	// Without a Flusher there is nothing to drain: Flush returns at once,
	// even with every tid held (leasing them would wait forever). Every
	// scheme here implements Flusher, leaky included, so the tracker is
	// wrapped to hide it.
	tr := trackers.MustNew("leaky", arena.New(1<<10), trackers.Config{MaxThreads: max})
	p := NewPool(struct{ smr.Tracker }{tr}, max)
	held := make([]*Session, max)
	for i := range held {
		held[i] = p.Acquire()
	}
	done := make(chan struct{})
	go func() {
		p.Flush()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Flush without a Flusher waited for leases it has nothing to drain")
	}
	for _, s := range held {
		p.Release(s)
	}
}

// TestSessionIsCacheLineSized: every lease writes its session's held
// word, so neighbouring sessions must not share a cache line.
func TestSessionIsCacheLineSized(t *testing.T) {
	if size := unsafe.Sizeof(Session{}); size%64 != 0 {
		t.Fatalf("Session is %d bytes: neighbouring sessions share a cache line", size)
	}
}

// TestTryAcquireDoesNotAllocate: a lease round trip — Acquire's cache
// hit and held CAS, Release's CAS and Put — never touches the heap; the
// KV's zero-allocation guarantee is built on top of this.
func TestTryAcquireDoesNotAllocate(t *testing.T) {
	p, _ := newPool(t, "leaky", 8)
	allocs := testing.AllocsPerRun(200, func() {
		p.Release(p.Acquire())
	})
	if allocs != 0 {
		t.Fatalf("Acquire/Release allocates %.1f times per lease", allocs)
	}
}

// BenchmarkAcquireRelease measures the lease round trip from at least
// four Ps in parallel over 64 tids.
func BenchmarkAcquireRelease(b *testing.B) {
	withProcs(b, 4, func() {
		p, _ := newPool(b, "leaky", 64)
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				s := p.Acquire()
				s.Enter()
				s.Leave()
				p.Release(s)
			}
		})
	})
}

func TestDoubleReleasePanics(t *testing.T) {
	p, _ := newPool(t, "leaky", 2)
	s := p.Acquire()
	p.Release(s)
	defer func() {
		if recover() == nil {
			t.Fatal("double Release must panic")
		}
	}()
	p.Release(s)
}

func TestReleaseForeignSessionPanics(t *testing.T) {
	p1, _ := newPool(t, "leaky", 1)
	p2, _ := newPool(t, "leaky", 1)
	s := p1.Acquire()
	defer p1.Release(s)
	defer func() {
		if recover() == nil {
			t.Fatal("Release on the wrong pool must panic")
		}
	}()
	p2.Release(s)
}

func TestNewPoolRejectsNonPositiveMax(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool(0) must panic")
		}
	}()
	a := arena.New(64)
	NewPool(trackers.MustNew("leaky", a, trackers.Config{MaxThreads: 1}), 0)
}

// TestSessionSurface drives every Session method through a scheme that
// implements both Trim and Flush, and through one that implements
// neither (exercising the fallbacks).
func TestSessionSurface(t *testing.T) {
	for _, scheme := range []string{"hyaline", "hp"} {
		p, _ := newPool(t, scheme, 2)
		p.Do(func(s *Session) {
			s.Enter()
			idx := s.Alloc()
			s.Dealloc(idx)
			idx = s.Alloc()
			s.Retire(idx)
			s.Trim() // native Trim on hyaline, Leave+Enter fallback on hp
			s.Leave()
			s.Flush()
		})
		p.Flush()
		// Hyaline's Flush pads partial batches with dummy nodes, so only
		// lower bounds hold for the counters.
		st := p.Tracker().Stats()
		if st.Allocated < 2 || st.Retired < 1 {
			t.Fatalf("%s: stats %+v", scheme, st)
		}
	}
}

// TestLeaseHandoffPublishesState checks the happens-before edge the
// package doc promises: unsynchronized per-tid state written under one
// lease is visible under the next lease of the same tid. Run with -race
// to make the check meaningful.
func TestLeaseHandoffPublishesState(t *testing.T) {
	p, _ := newPool(t, "epoch", 1)
	scratch := make([]int, 1) // plain memory keyed by tid
	var wg sync.WaitGroup
	const rounds = 1000
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				p.Do(func(s *Session) {
					scratch[s.Tid()]++ // exclusive by leasing alone
				})
			}
		}()
	}
	wg.Wait()
	if scratch[0] != 4*rounds {
		t.Fatalf("scratch = %d, want %d (lease handoff lost writes)", scratch[0], 4*rounds)
	}
}
