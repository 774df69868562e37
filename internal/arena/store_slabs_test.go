package arena_test

import (
	"runtime"
	"testing"

	"hyaline"
	"hyaline/internal/arena"
)

// TestOneSlabPerStore: a bytes store is built from two slabs, its one
// node pool and its one blob heap, at 1, 2 and 4 shards, and maps the
// same bytes at each (none in a race build, whose slabs are on the Go
// heap). A store with an arena per shard made 27 slabs per shard.
func TestOneSlabPerStore(t *testing.T) {
	opts := hyaline.KVOptions{MaxThreads: 4, ArenaCap: 1 << 12, BlobClassBudget: 1 << 14}
	// Every store stays reachable until the test ends, so no cleanup of
	// one is queued inside the next one's measurement.
	var kept []*hyaline.KVBytes
	defer func() { runtime.KeepAlive(kept) }()
	for attempt := 1; ; attempt++ {
		runtime.GC()
		grew := map[int]int64{}
		for _, shards := range []int{1, 2, 4} {
			made, m := arena.SlabsMade(), arena.Mapped()
			kv, err := hyaline.NewShardedKVBytes("blist", "hyaline", shards, opts)
			if err != nil {
				t.Fatal(err)
			}
			kept = append(kept, kv)
			if n := arena.SlabsMade() - made; n != 2 {
				t.Fatalf("%d shards: the store made %d slabs, want 2 (node pool and blob heap)", shards, n)
			}
			grew[shards] = arena.Mapped() - m
		}
		if grew[2] == grew[1] && grew[4] == grew[1] {
			return
		}
		// An arena dropped by an earlier test may be unmapped by its
		// cleanup while these are built; that only ever lowers the
		// count, and not on every attempt.
		if attempt == 3 {
			t.Fatalf("Mapped grew by %v bytes at 1, 2 and 4 shards, want the same at each", grew)
		}
	}
}
