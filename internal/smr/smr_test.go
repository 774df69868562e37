package smr

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestCountersSum(t *testing.T) {
	c := NewCounters(4)
	c.Alloc(0)
	c.Alloc(1)
	c.Retire(2)
	c.RetireN(3, 5)
	c.Free(0, 2)
	c.Dealloc(1)
	s := c.Sum()
	want := Stats{Allocated: 2, Retired: 7, Freed: 3}
	if s != want {
		t.Fatalf("Sum = %+v, want %+v", s, want)
	}
	if s.Unreclaimed() != 4 {
		t.Fatalf("Unreclaimed = %d", s.Unreclaimed())
	}
}

func TestCountersConcurrent(t *testing.T) {
	const (
		threads = 8
		ops     = 10000
	)
	c := NewCounters(threads)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				c.Alloc(tid)
				c.Retire(tid)
				c.Free(tid, 1)
			}
		}(w)
	}
	wg.Wait()
	s := c.Sum()
	if s.Allocated != threads*ops || s.Retired != threads*ops || s.Freed != threads*ops {
		t.Fatalf("lost updates: %+v", s)
	}
	if s.Unreclaimed() != 0 {
		t.Fatalf("Unreclaimed = %d", s.Unreclaimed())
	}
}

func TestDeallocKeepsInvariants(t *testing.T) {
	// Dealloc must preserve Unreclaimed == Retired-Freed == 0 for pure
	// dealloc traffic, for any interleaving.
	f := func(deallocs uint8) bool {
		c := NewCounters(1)
		for i := 0; i < int(deallocs); i++ {
			c.Alloc(0)
			c.Dealloc(0)
		}
		s := c.Sum()
		return s.Unreclaimed() == 0 && s.Allocated == int64(deallocs) &&
			s.Freed == int64(deallocs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountersShardAccounting(t *testing.T) {
	// Every operation lands in its own tid's shard and nowhere else:
	// drive each shard with a distinct operation pattern and check that
	// the fold sees exactly the per-shard contributions.
	c := NewCounters(4)
	c.Alloc(0)
	c.Alloc(0)      // shard 0: 2 allocs
	c.Retire(1)     // shard 1: 1 retire
	c.RetireN(2, 7) // shard 2: 7 retires
	c.Free(2, 3)    // shard 2: 3 frees
	c.Dealloc(3)    // shard 3: 1 retire + 1 free

	want := Stats{Allocated: 2, Retired: 9, Freed: 4}
	if s := c.Sum(); s != want {
		t.Fatalf("Sum = %+v, want %+v", s, want)
	}
	// RetireN with zero must be a no-op, not a lost update.
	c.RetireN(0, 0)
	if s := c.Sum(); s != want {
		t.Fatalf("RetireN(0) changed the sum: %+v", s)
	}
}

func TestCountersRetireNConcurrent(t *testing.T) {
	// Batch retires (RetireN) racing frees on the same shard must not
	// lose updates — the pattern Hyaline uses when a whole batch is
	// handed over at once.
	const (
		threads = 8
		rounds  = 2000
		batch   = 5
	)
	c := NewCounters(threads)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c.RetireN(tid, batch)
				c.Free(tid, batch)
			}
		}(w)
	}
	wg.Wait()
	s := c.Sum()
	wantN := int64(threads * rounds * batch)
	if s.Retired != wantN || s.Freed != wantN || s.Unreclaimed() != 0 {
		t.Fatalf("Sum = %+v, want %d retired+freed", s, wantN)
	}
}

func TestStatsUnreclaimed(t *testing.T) {
	s := Stats{Allocated: 10, Retired: 7, Freed: 3}
	if s.Unreclaimed() != 4 {
		t.Fatalf("Unreclaimed = %d", s.Unreclaimed())
	}
}

func TestDeallocConcurrentWithRetireTraffic(t *testing.T) {
	// Mixed workload: some threads run alloc→retire→free cycles, others
	// pure alloc→dealloc (speculative CAS losers). Dealloc counts as
	// retired-and-freed at once, so the sums must balance exactly and
	// Unreclaimed must come out zero.
	const (
		threads = 8
		ops     = 5000
	)
	c := NewCounters(threads)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				c.Alloc(tid)
				if tid%2 == 0 {
					c.Dealloc(tid)
				} else {
					c.Retire(tid)
					c.Free(tid, 1)
				}
			}
		}(w)
	}
	wg.Wait()
	s := c.Sum()
	want := Stats{Allocated: threads * ops, Retired: threads * ops, Freed: threads * ops}
	if s != want {
		t.Fatalf("Sum = %+v, want %+v", s, want)
	}
	if s.Unreclaimed() != 0 {
		t.Fatalf("Unreclaimed = %d, want 0", s.Unreclaimed())
	}
}

// TestCountersOwnerWrites runs the one-writer-per-tid contract the
// counters' plain stores rely on: four goroutines each own one tid and
// loop over every update method, while a fifth folds Sum throughout and
// checks that no field ever falls. The final Sum must be exact. Run it
// with and without -race: the two builds have the two bodies of
// ptr.StoreOwned (atomic and plain).
func TestCountersOwnerWrites(t *testing.T) {
	const (
		owners = 4
		rounds = 20000
	)
	c := NewCounters(owners)
	var writers, reader sync.WaitGroup
	done := make(chan struct{})
	reader.Add(1)
	go func() {
		defer reader.Done()
		var last Stats
		for {
			select {
			case <-done:
				return
			default:
			}
			s := c.Sum()
			if s.Allocated < last.Allocated || s.Retired < last.Retired ||
				s.Freed < last.Freed || s.Scans < last.Scans {
				t.Errorf("Sum fell from %+v to %+v", last, s)
				return
			}
			last = s
		}
	}()
	for tid := 0; tid < owners; tid++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for range rounds {
				c.Alloc(tid)
				c.Retire(tid)
				c.RetireN(tid, 3)
				c.Dealloc(tid)
				c.Free(tid, 2)
				c.Scan(tid)
			}
		}()
	}
	writers.Wait()
	close(done)
	reader.Wait()
	want := Stats{
		Allocated: owners * rounds,
		Retired:   owners * rounds * (1 + 3 + 1),
		Freed:     owners * rounds * (1 + 2),
		Scans:     owners * rounds,
	}
	if s := c.Sum(); s != want {
		t.Fatalf("Sum = %+v, want %+v", s, want)
	}
}
