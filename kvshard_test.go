package hyaline_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hyaline"
)

func mustShardedKV(t testing.TB, structure, scheme string, shards int, opts hyaline.KVOptions) *hyaline.ShardedKV {
	t.Helper()
	kv, err := hyaline.NewShardedKV(structure, scheme, shards, opts)
	if err != nil {
		t.Fatalf("NewShardedKV(%s, %s, %d): %v", structure, scheme, shards, err)
	}
	return kv
}

// TestShardedConstructErrors: both key families reject a non-positive
// shard count and unknown structure/scheme names through the one shared
// constructor path.
func TestShardedConstructErrors(t *testing.T) {
	families := []struct {
		name, structure string
		build           func(structure, scheme string, shards int) error
	}{
		{"uint64", "list", func(st, sc string, n int) error {
			_, err := hyaline.NewShardedKV(st, sc, n, hyaline.KVOptions{})
			return err
		}},
		{"bytes", "blist", func(st, sc string, n int) error {
			_, err := hyaline.NewShardedKVBytes(st, sc, n, hyaline.KVOptions{})
			return err
		}},
	}
	for _, f := range families {
		for _, shards := range []int{0, -1, -8} {
			if f.build(f.structure, "hyaline", shards) == nil {
				t.Errorf("%s: %d shards accepted", f.name, shards)
			}
		}
		if f.build("no-such-structure", "hyaline", 4) == nil {
			t.Errorf("%s: unknown structure accepted", f.name)
		}
		if f.build(f.structure, "no-such-scheme", 4) == nil {
			t.Errorf("%s: unknown scheme accepted", f.name)
		}
		if err := f.build(f.structure, "hyaline", 3); err != nil {
			t.Errorf("%s: valid 3-shard construction failed: %v", f.name, err)
		}
	}
}

// TestShardedKVBasic runs the singleton surface and the aggregates at
// shards == 1 and shards > 1: the same engine, so the same assertions.
func TestShardedKVBasic(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testShardedKVBasic(t, shards) })
	}
}

func testShardedKVBasic(t *testing.T, shards int) {
	kv := mustShardedKV(t, "list", "hyaline", shards, hyaline.KVOptions{MaxThreads: 8})
	const n = 500
	for k := uint64(0); k < n; k++ {
		if !kv.Insert(k, kvChecksum(k)) {
			t.Fatalf("Insert(%d) failed", k)
		}
		if kv.Insert(k, 0) {
			t.Fatalf("duplicate Insert(%d) succeeded", k)
		}
	}
	for k := uint64(0); k < n; k++ {
		v, ok := kv.Get(k)
		if !ok || v != kvChecksum(k) {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
	if _, ok := kv.Get(n + 1); ok {
		t.Fatal("Get of absent key hit")
	}
	if got := kv.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	if got := kv.Shards(); got != shards {
		t.Fatalf("Shards = %d, want %d", got, shards)
	}
	if kv.Structure() != "list" || kv.Scheme() != "hyaline" {
		t.Fatalf("Structure/Scheme = %q/%q", kv.Structure(), kv.Scheme())
	}
	if got := kv.MaxThreads(); got < 8 {
		t.Fatalf("MaxThreads = %d, want >= 8 (total bound)", got)
	}
	snap := kv.Snapshot()
	if snap.Shards != shards || snap.Len != n || snap.Structure != "list" || snap.Scheme != "hyaline" {
		t.Fatalf("Snapshot = %+v", snap)
	}
	if snap.Stats.Allocated < n || snap.Live < int64(n) {
		t.Fatalf("aggregate accounting too small: %+v", snap)
	}
	for k := uint64(0); k < n; k += 2 {
		if !kv.Delete(k) {
			t.Fatalf("Delete(%d) failed", k)
		}
		if kv.Delete(k) {
			t.Fatalf("double Delete(%d) succeeded", k)
		}
	}
	if got := kv.Len(); got != n/2 {
		t.Fatalf("Len after deletes = %d, want %d", got, n/2)
	}
	kv.Flush()
	if got := kv.InFlight(); got != 0 {
		t.Fatalf("InFlight at quiescence = %d", got)
	}
}

// TestShardedKVApplyMatchesUnsharded drives identical op sequences —
// duplicate keys, cross-shard batches, deletes of absent keys —
// through a sharded and an unsharded KV: routing must be invisible, so
// every Result must match position for position.
func TestShardedKVApplyMatchesUnsharded(t *testing.T) {
	sharded := mustShardedKV(t, "hashmap", "hyaline", 4, hyaline.KVOptions{MaxThreads: 8})
	plain := mustKV(t, "hashmap", "hyaline", hyaline.KVOptions{MaxThreads: 8})
	rng := rand.New(rand.NewSource(42))
	var ops []hyaline.Op
	for round := 0; round < 50; round++ {
		ops = ops[:0]
		for i := 0; i < rng.Intn(200); i++ {
			op := hyaline.Op{Kind: hyaline.OpKind(rng.Intn(3)), Key: uint64(rng.Intn(256))}
			if op.Kind == hyaline.OpInsert {
				op.Val = rng.Uint64()
			}
			ops = append(ops, op)
		}
		got := sharded.Apply(ops)
		want := plain.Apply(ops)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d results vs %d", round, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d op %d (%s key %d): sharded %+v, unsharded %+v",
					round, i, ops[i].Kind, ops[i].Key, got[i], want[i])
			}
		}
	}
	if sharded.Len() != plain.Len() {
		t.Fatalf("Len diverged: sharded %d, unsharded %d", sharded.Len(), plain.Len())
	}
}

// TestShardedKVRangeMatchesUnsharded is the merged-scan property test:
// at quiescence, a sharded Range over any window must reproduce the
// unsharded scan exactly — same keys, same values, same order, no
// duplicates — including early stops and the hi = 2^64-1 edge.
func TestShardedKVRangeMatchesUnsharded(t *testing.T) {
	sharded := mustShardedKV(t, "list", "hyaline", 4, hyaline.KVOptions{MaxThreads: 8})
	plain := mustKV(t, "list", "hyaline", hyaline.KVOptions{MaxThreads: 8})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		key := uint64(rng.Intn(1500))
		if rng.Intn(3) == 0 {
			sharded.Delete(key)
			plain.Delete(key)
		} else {
			sharded.Insert(key, kvChecksum(key))
			plain.Insert(key, kvChecksum(key))
		}
	}
	// Keys pinned at the keyspace edges so the full-range and overflow
	// windows are non-trivial.
	for _, key := range []uint64{0, ^uint64(0), ^uint64(0) - 1} {
		sharded.Insert(key, kvChecksum(key))
		plain.Insert(key, kvChecksum(key))
	}

	collect := func(kv interface {
		Range(lo, hi uint64, fn func(k, v uint64) bool) error
	}, lo, hi uint64, limit int) []kvEntry {
		var out []kvEntry
		err := kv.Range(lo, hi, func(k, v uint64) bool {
			out = append(out, kvEntry{k, v})
			return limit <= 0 || len(out) < limit
		})
		if err != nil {
			t.Fatalf("Range(%d, %d): %v", lo, hi, err)
		}
		return out
	}

	windows := []struct {
		lo, hi uint64
		limit  int
	}{
		{0, ^uint64(0), 0},              // full keyspace, overflow edge
		{0, 1499, 0},                    // populated interior
		{100, 700, 0},                   // interior window
		{0, ^uint64(0), 17},             // early stop mid-merge
		{1400, ^uint64(0), 0},           // sparse tail + pinned max keys
		{900, 200, 0},                   // empty (lo > hi)
		{3000, 1 << 40, 0},              // empty interior
		{^uint64(0) - 1, ^uint64(0), 0}, // two-key window at the edge
	}
	for wi, w := range windows {
		got := collect(sharded, w.lo, w.hi, w.limit)
		want := collect(plain, w.lo, w.hi, w.limit)
		if len(got) != len(want) {
			t.Fatalf("window %d [%d,%d]: %d entries vs %d", wi, w.lo, w.hi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("window %d entry %d: sharded %+v, unsharded %+v", wi, i, got[i], want[i])
			}
			if i > 0 && got[i].k <= got[i-1].k {
				t.Fatalf("window %d: keys not strictly ascending at %d: %d then %d",
					wi, i, got[i-1].k, got[i].k)
			}
		}
	}
}

type kvEntry struct{ k, v uint64 }

func TestShardedKVRangeUnordered(t *testing.T) {
	kv := mustShardedKV(t, "hashmap", "hyaline", 4, hyaline.KVOptions{})
	if err := kv.Range(0, 100, func(uint64, uint64) bool { return true }); err == nil {
		t.Fatal("Range on hashmap shards succeeded, want error")
	}
}

// TestShardedKVConcurrentApply churns striped batches from many
// goroutines (run under -race in CI): per-stripe values must survive
// exactly, and at quiescence every lease is back and the merged scan
// agrees with the aggregate Len.
func TestShardedKVConcurrentApply(t *testing.T) {
	const (
		shards     = 4
		goroutines = 8
		rounds     = 60
		stripeKeys = 48
	)
	kv := mustShardedKV(t, "list", "hyaline", shards, hyaline.KVOptions{MaxThreads: 8})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Stripe g owns keys ≡ g (mod goroutines): exclusive, so the
			// expected final state is deterministic per stripe.
			ops := make([]hyaline.Op, 0, 2*stripeKeys)
			for r := 0; r < rounds; r++ {
				ops = ops[:0]
				for i := 0; i < stripeKeys; i++ {
					key := uint64(i*goroutines + g)
					ops = append(ops, hyaline.Op{Kind: hyaline.OpInsert, Key: key, Val: kvChecksum(key)})
				}
				for i := 0; i < stripeKeys; i++ {
					key := uint64(i*goroutines + g)
					if (i+r)%3 == 0 {
						ops = append(ops, hyaline.Op{Kind: hyaline.OpDelete, Key: key})
					} else {
						ops = append(ops, hyaline.Op{Kind: hyaline.OpGet, Key: key})
					}
				}
				res := kv.ApplyInto(nil, ops)
				for i, op := range ops {
					if op.Kind == hyaline.OpGet && res[i].OK && res[i].Val != kvChecksum(op.Key) {
						t.Errorf("goroutine %d: Get(%d) = %d, want %d", g, op.Key, res[i].Val, kvChecksum(op.Key))
						return
					}
				}
			}
			// Settle the stripe: every key present with its checksum.
			ops = ops[:0]
			for i := 0; i < stripeKeys; i++ {
				key := uint64(i*goroutines + g)
				ops = append(ops, hyaline.Op{Kind: hyaline.OpInsert, Key: key, Val: kvChecksum(key)})
			}
			kv.Apply(ops)
		}(g)
	}
	wg.Wait()

	if got := kv.InFlight(); got != 0 {
		t.Fatalf("InFlight at quiescence = %d", got)
	}
	want := goroutines * stripeKeys
	if got := kv.Len(); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	seen := 0
	err := kv.Range(0, ^uint64(0), func(k, v uint64) bool {
		if v != kvChecksum(k) {
			t.Errorf("Range saw %d -> %d, want %d", k, v, kvChecksum(k))
			return false
		}
		seen++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != want {
		t.Fatalf("merged Range visited %d keys, want %d", seen, want)
	}
	st := kv.Stats()
	if st.Freed > st.Retired || st.Retired > st.Allocated {
		t.Fatalf("aggregate counters inconsistent: %+v", st)
	}
}

// onShard0 returns the first n keys 0, 1, 2, … that route to shard 0,
// read off a probe store's per-shard counters: insert(k) puts k into
// the probe, and a key is shard 0's when shard 0's Allocated moves.
func onShard0(n int, stats func() []hyaline.Stats, insert func(k uint64)) []uint64 {
	var keys []uint64
	for k := uint64(0); len(keys) < n; k++ {
		before := stats()[0].Allocated
		insert(k)
		if stats()[0].Allocated != before {
			keys = append(keys, k)
		}
	}
	return keys
}

// panicOf runs f and returns what it panicked with, nil if nothing. An
// exhausted arena panics in the goroutine that calls Insert, so a test
// that recovers it reports a failure instead of killing the test binary.
func panicOf(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// TestSkewedKeysFillTheWholeArena: ArenaCap is the store's budget, not
// each shard's. Keys that all route to one shard fill every node of the
// store's pool at 1, 2 and 4 shards, and only the insert after that
// finds it exhausted. A store that split the pool into ArenaCap/shards
// per shard ran out at 512 of 1024 keys on 2 shards.
func TestSkewedKeysFillTheWholeArena(t *testing.T) {
	const arenaCap = 1 << 10
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			probe := mustShardedKV(t, "hashmap", "hyaline", shards, hyaline.KVOptions{MaxThreads: shards, ArenaCap: 1 << 16})
			keys := onShard0(arenaCap+1, probe.ShardStats, func(k uint64) { probe.Insert(k, k) })
			kv := mustShardedKV(t, "hashmap", "hyaline", shards, hyaline.KVOptions{MaxThreads: shards, ArenaCap: arenaCap})
			for i, k := range keys[:arenaCap] {
				if p := panicOf(func() { kv.Insert(k, k) }); p != nil {
					t.Fatalf("insert %d of %d, all on shard 0: %v", i+1, arenaCap, p)
				}
			}
			if live, on0 := kv.Live(), kv.ShardStats()[0].Allocated; live != arenaCap || on0 != arenaCap {
				t.Fatalf("Live = %d and shard 0 allocated %d, want both %d", live, on0, arenaCap)
			}
			p := panicOf(func() { kv.Insert(keys[arenaCap], 0) })
			if !strings.Contains(fmt.Sprint(p), "out of nodes") {
				t.Fatalf("insert past ArenaCap = %d: got panic %v, want out of nodes", arenaCap, p)
			}
		})
	}
}

// TestSkewedValuesFillTheWholeBlobBudget: BlobClassBudget is the
// store's budget per class, not each shard's. Values of one size class
// under keys that all route to one shard of two fill every block the
// budget buys in that class, and only the next value finds it
// exhausted. A store that split the budget per shard ran out at half.
func TestSkewedValuesFillTheWholeBlobBudget(t *testing.T) {
	const (
		shards = 2
		budget = 1 << 13
		blocks = budget / 128 // a 100-byte value takes a 128-byte block
	)
	opts := hyaline.KVOptions{MaxThreads: shards, ArenaCap: 1 << 10, BlobClassBudget: budget}
	var kb [8]byte
	key := func(k uint64) []byte { return binary.BigEndian.AppendUint64(kb[:0], k) }
	val := bytes.Repeat([]byte{0xA5}, 100)
	probe, err := hyaline.NewShardedKVBytes("blist", "hyaline", shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := onShard0(blocks+1, probe.ShardStats, func(k uint64) { probe.Insert(key(k), nil) })
	kv, err := hyaline.NewShardedKVBytes("blist", "hyaline", shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys[:blocks] {
		if p := panicOf(func() { kv.Insert(key(k), val) }); p != nil {
			t.Fatalf("value %d of %d, all on shard 0: %v", i+1, blocks, p)
		}
	}
	if n := kv.ShardStats()[0].Allocated; n != blocks {
		t.Fatalf("shard 0 allocated %d nodes, want %d", n, blocks)
	}
	if live := kv.BlobStats().Live(); live != 2*blocks {
		t.Fatalf("%d blobs live, want %d (a key and a value per entry)", live, 2*blocks)
	}
	p := panicOf(func() { kv.Insert(key(keys[blocks]), val) })
	if !strings.Contains(fmt.Sprint(p), "out of 128-byte blob blocks") {
		t.Fatalf("value past the class budget: got panic %v, want out of 128-byte blob blocks", p)
	}
}
