package hyaline_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"hyaline"
)

// TestKVLenStatsRaceApply hammers KV.Len, KV.Stats, KV.Live and
// KV.Snapshot from reader goroutines while applier goroutines run
// batched mutations, for every scheme. The gauges are documented as
// approximate under churn, so mid-run assertions are liveness-shaped
// (readable at all, race-clean under -race); the quiescent end state is
// checked exactly: Len must equal the count of present keys, retired
// never exceeds allocated, and after Flush the gauges agree with Live.
func TestKVLenStatsRaceApply(t *testing.T) {
	appliers, readers := 4, 2
	batches, batchSize := 60, 48
	if testing.Short() {
		batches = 15
	}
	for _, scheme := range hyaline.Schemes() {
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			kv, err := hyaline.NewKV("hashmap", scheme, hyaline.KVOptions{
				MaxThreads: 4,
				ArenaCap:   1 << 18,
			})
			if err != nil {
				t.Fatal(err)
			}
			const keySpace = 1024
			var (
				applyWG  sync.WaitGroup
				readerWG sync.WaitGroup
				done     atomic.Bool
			)
			for r := 0; r < readers; r++ {
				readerWG.Add(1)
				go func() {
					defer readerWG.Done()
					for !done.Load() {
						if n := kv.Len(); n < 0 {
							t.Errorf("Len went negative: %d", n)
							return
						}
						st := kv.Stats()
						if st.Allocated < 0 || st.Retired < 0 || st.Freed < 0 {
							t.Errorf("negative counter: %+v", st)
							return
						}
						kv.Live()
						if s := kv.Snapshot(); s.Scheme != scheme {
							t.Errorf("snapshot scheme %q, want %q", s.Scheme, scheme)
							return
						}
					}
				}()
			}
			for a := 0; a < appliers; a++ {
				applyWG.Add(1)
				go func(seed int64) {
					defer applyWG.Done()
					rng := rand.New(rand.NewSource(seed))
					ops := make([]hyaline.Op, batchSize)
					dst := make([]hyaline.Result, 0, batchSize)
					for b := 0; b < batches; b++ {
						for i := range ops {
							key := uint64(rng.Intn(keySpace))
							switch rng.Intn(3) {
							case 0:
								ops[i] = hyaline.Op{Kind: hyaline.OpInsert, Key: key, Val: key * 3}
							case 1:
								ops[i] = hyaline.Op{Kind: hyaline.OpDelete, Key: key}
							default:
								ops[i] = hyaline.Op{Kind: hyaline.OpGet, Key: key}
							}
						}
						dst = kv.ApplyInto(dst[:0], ops)
						for i, r := range dst {
							if ops[i].Kind == hyaline.OpGet && r.OK && r.Val != ops[i].Key*3 {
								t.Errorf("corrupted read: key %d → %d", ops[i].Key, r.Val)
								return
							}
						}
					}
				}(int64(a) + 17)
			}
			// Applier completion stops the readers.
			applyWG.Wait()
			done.Store(true)
			readerWG.Wait()
			if t.Failed() {
				return
			}

			// Quiescent: gauges are exact now.
			present := 0
			for k := uint64(0); k < keySpace; k++ {
				if _, ok := kv.Get(k); ok {
					present++
				}
			}
			if n := kv.Len(); n != present {
				t.Fatalf("Len=%d at quiescence, %d keys answer Get", n, present)
			}
			kv.Flush()
			st := kv.Stats()
			if st.Retired > st.Allocated {
				t.Fatalf("retired %d > allocated %d", st.Retired, st.Allocated)
			}
			if st.Unreclaimed() < 0 {
				t.Fatalf("negative unreclaimed: %+v", st)
			}
			// Live nodes = allocated-but-unfreed; the snapshot's view
			// must agree with the tracker's ledger at quiescence.
			if snap := kv.Snapshot(); snap.Live != st.Allocated-st.Freed {
				t.Fatalf("live %d != allocated-freed %d (%+v)", snap.Live, st.Allocated-st.Freed, st)
			}
		})
	}
}

// statsStore is the aggregate surface both key families promote from
// the one engine.
type statsStore interface {
	Stats() hyaline.Stats
	ShardStats() []hyaline.Stats
	Snapshot() hyaline.Snapshot
	Len() int
	Live() int64
	Shards() int
	Flush()
}

// TestShardedStatsAggregate is the regression test for the dropped
// Scans aggregate: the sharded Snapshot used to sum Allocated/Retired/
// Freed by hand and forget Scans, so STATS and hyaline_kv_scans_total
// read 0 on any sharded daemon. With one Stats/Snapshot implementation,
// a 3-shard store after churn + Flush must report Snapshot().Stats equal
// to Stats() field for field, both equal to the per-shard sum, with a
// non-zero Scans — in both key families.
func TestShardedStatsAggregate(t *testing.T) {
	const shards, n = 3, 4000
	u64, err := hyaline.NewShardedKV("hashmap", "hyaline", shards, hyaline.KVOptions{MaxThreads: 6})
	if err != nil {
		t.Fatal(err)
	}
	byt, err := hyaline.NewShardedKVBytes("blist", "hyaline", shards, hyaline.KVOptions{MaxThreads: 6})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < n; k++ {
		u64.Insert(k, k)
		u64.Delete(k)
		key := []byte(fmt.Sprintf("k%d", k%97))
		byt.Insert(key, key)
		byt.Delete(key)
	}
	for name, kv := range map[string]statsStore{"uint64": u64, "bytes": byt} {
		kv.Flush()
		st, snap := kv.Stats(), kv.Snapshot()
		if snap.Stats != st {
			t.Errorf("%s: Snapshot().Stats = %+v, Stats() = %+v", name, snap.Stats, st)
		}
		var sum hyaline.Stats
		per := kv.ShardStats()
		for _, s := range per {
			sum.Allocated += s.Allocated
			sum.Retired += s.Retired
			sum.Freed += s.Freed
			sum.Scans += s.Scans
		}
		if len(per) != shards || sum != st {
			t.Errorf("%s: Σ ShardStats (%d shards) = %+v, Stats() = %+v", name, len(per), sum, st)
		}
		if st.Scans <= 0 || st.Retired < n {
			t.Errorf("%s: churn + Flush left Stats = %+v, want Scans > 0 and Retired >= %d", name, st, n)
		}
		if snap.Shards != shards || kv.Shards() != shards || snap.Len != kv.Len() || snap.Live != kv.Live() {
			t.Errorf("%s: Snapshot %+v disagrees with Shards/Len/Live = %d/%d/%d", name, snap, kv.Shards(), kv.Len(), kv.Live())
		}
	}
}
