package hyaline_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"hyaline"
)

func mustKV(t testing.TB, structure, scheme string, opts hyaline.KVOptions) *hyaline.KV {
	t.Helper()
	kv, err := hyaline.NewKV(structure, scheme, opts)
	if err != nil {
		t.Fatal(err)
	}
	return kv
}

// TestKVApplyBasic pins the per-op semantics of a mixed batch against
// the singleton operations.
func TestKVApplyBasic(t *testing.T) {
	kv := mustKV(t, "hashmap", "hyaline", hyaline.KVOptions{MaxThreads: 2})

	if got := kv.Apply(nil); got != nil {
		t.Fatalf("Apply(nil) = %v, want nil", got)
	}

	res := kv.Apply([]hyaline.Op{
		{Kind: hyaline.OpInsert, Key: 1, Val: 10},
		{Kind: hyaline.OpInsert, Key: 1, Val: 11}, // duplicate
		{Kind: hyaline.OpGet, Key: 1},
		{Kind: hyaline.OpDelete, Key: 2}, // absent
		{Kind: hyaline.OpDelete, Key: 1},
		{Kind: hyaline.OpGet, Key: 1}, // now absent
	})
	want := []hyaline.Result{
		{OK: true},
		{OK: false},
		{Val: 10, OK: true},
		{OK: false},
		{OK: true},
		{OK: false},
	}
	if len(res) != len(want) {
		t.Fatalf("Apply returned %d results, want %d", len(res), len(want))
	}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("result %d = %+v, want %+v", i, res[i], want[i])
		}
	}
	if kv.Len() != 0 {
		t.Fatalf("Len = %d after the batch emptied the map", kv.Len())
	}
}

// wantPanic runs fn and returns the value it panicked with.
func wantPanic(t *testing.T, what string, fn func()) (v any) {
	t.Helper()
	defer func() {
		if v = recover(); v == nil {
			t.Fatalf("%s must panic", what)
		}
	}()
	fn()
	return nil
}

// TestApplyUnknownKindPanics: one panic, one message, in both key
// families at any shard count — raised before any lease is taken, so
// the valid op ahead of the bad one has not run either.
func TestApplyUnknownKindPanics(t *testing.T) {
	const want = "hyaline: Apply op 1 has unknown kind OpKind(99)"
	for _, shards := range []int{1, 3} {
		kv := mustShardedKV(t, "hashmap", "epoch", shards, hyaline.KVOptions{MaxThreads: 4})
		got := wantPanic(t, "Apply with an unknown OpKind", func() {
			kv.Apply([]hyaline.Op{{Kind: hyaline.OpInsert, Key: 1, Val: 1}, {Kind: hyaline.OpKind(99), Key: 1}})
		})
		if got != want || kv.Len() != 0 || kv.InFlight() != 0 || kv.Stats().Allocated != 0 {
			t.Errorf("uint64 shards=%d: panic %q (want %q), Len %d, InFlight %d, Stats %+v",
				shards, got, want, kv.Len(), kv.InFlight(), kv.Stats())
		}
		kvb := mustShardedKVBytes(t, "blist", "epoch", shards, hyaline.KVOptions{MaxThreads: 4})
		got = wantPanic(t, "ApplyBytes with an unknown OpKind", func() {
			kvb.ApplyBytes([]hyaline.BytesOp{{Kind: hyaline.OpInsert, Key: []byte("k")}, {Kind: hyaline.OpKind(99)}})
		})
		if got != want || kvb.Len() != 0 || kvb.InFlight() != 0 {
			t.Errorf("bytes shards=%d: panic %q (want %q), Len %d, InFlight %d", shards, got, want, kvb.Len(), kvb.InFlight())
		}
	}
}

func TestKVBatchHelpers(t *testing.T) {
	kv := mustKV(t, "hashmap", "hyaline-s", hyaline.KVOptions{MaxThreads: 4})

	keys := []uint64{3, 1, 4, 1, 5}
	vals := []uint64{30, 10, 40, 11, 50}
	ins := kv.InsertBatch(keys, vals)
	wantIns := []bool{true, true, true, false, true} // second 1 is a dup
	for i := range wantIns {
		if ins[i] != wantIns[i] {
			t.Fatalf("InsertBatch ok[%d] = %v, want %v", i, ins[i], wantIns[i])
		}
	}
	if kv.Len() != 4 {
		t.Fatalf("Len = %d after InsertBatch, want 4", kv.Len())
	}

	got := kv.GetBatch(nil, []uint64{1, 2, 3, 4, 5})
	wantGet := []hyaline.Result{
		{Val: 10, OK: true}, {OK: false}, {Val: 30, OK: true},
		{Val: 40, OK: true}, {Val: 50, OK: true},
	}
	for i := range wantGet {
		if got[i] != wantGet[i] {
			t.Fatalf("GetBatch[%d] = %+v, want %+v", i, got[i], wantGet[i])
		}
	}

	// GetBatch must append to the caller's buffer, not clobber it.
	buf := kv.GetBatch(make([]hyaline.Result, 1, 8), []uint64{3})
	if len(buf) != 2 || buf[1] != (hyaline.Result{Val: 30, OK: true}) {
		t.Fatalf("GetBatch append semantics broken: %+v", buf)
	}

	del := kv.DeleteBatch([]uint64{1, 1, 9})
	wantDel := []bool{true, false, false}
	for i := range wantDel {
		if del[i] != wantDel[i] {
			t.Fatalf("DeleteBatch ok[%d] = %v, want %v", i, del[i], wantDel[i])
		}
	}

	// Empty batches are free and lease nothing.
	if kv.InsertBatch(nil, nil) != nil || kv.DeleteBatch(nil) != nil {
		t.Fatal("empty mutation batches must return nil")
	}
	if out := kv.GetBatch(buf, nil); len(out) != len(buf) {
		t.Fatal("empty GetBatch must return dst unchanged")
	}
}

// TestInsertBatchLengthMismatchPanics: one message for both families at
// any shard count.
func TestInsertBatchLengthMismatchPanics(t *testing.T) {
	const want = "hyaline: InsertBatch with 2 keys but 1 vals"
	for _, shards := range []int{1, 3} {
		kv := mustShardedKV(t, "hashmap", "hyaline", shards, hyaline.KVOptions{MaxThreads: 4})
		if got := wantPanic(t, "InsertBatch with mismatched slices", func() {
			kv.InsertBatch([]uint64{1, 2}, []uint64{10})
		}); got != want {
			t.Errorf("uint64 shards=%d: panic %q, want %q", shards, got, want)
		}
		kvb := mustShardedKVBytes(t, "blist", "hyaline", shards, hyaline.KVOptions{MaxThreads: 4})
		if got := wantPanic(t, "bytes InsertBatch with mismatched slices", func() {
			kvb.InsertBatch([][]byte{{1}, {2}}, [][]byte{{10}})
		}); got != want {
			t.Errorf("bytes shards=%d: panic %q, want %q", shards, got, want)
		}
	}
}

// TestKVApplyChunking pushes batches far beyond the internal chunk size
// through every scheme: the mid-batch Trim must keep results exact and,
// after a full drain, reclamation must not have been starved by the
// long brackets.
func TestKVApplyChunking(t *testing.T) {
	for _, scheme := range hyaline.Schemes() {
		t.Run(scheme, func(t *testing.T) {
			kv := mustKV(t, "hashmap", scheme, hyaline.KVOptions{MaxThreads: 2})
			const n = 1000 // ~16 chunks per batch
			ops := make([]hyaline.Op, 0, 2*n)
			for i := 0; i < n; i++ {
				ops = append(ops, hyaline.Op{Kind: hyaline.OpInsert, Key: uint64(i), Val: kvChecksum(uint64(i))})
			}
			for i := 0; i < n; i++ {
				ops = append(ops, hyaline.Op{Kind: hyaline.OpDelete, Key: uint64(i)})
			}
			for round := 0; round < 4; round++ {
				res := kv.Apply(ops)
				for i, r := range res {
					if !r.OK {
						t.Fatalf("round %d: op %d failed", round, i)
					}
				}
			}
			if kv.Len() != 0 {
				t.Fatalf("Len = %d after drain batches", kv.Len())
			}
			kv.Flush()
			if scheme != "leaky" {
				if un := kv.Stats().Unreclaimed(); un > 4096 {
					t.Fatalf("%d nodes unreclaimed after chunked batches + Flush", un)
				}
			}
		})
	}
}

// TestKVBatchConcurrent mixes batched and singleton callers on one KV:
// each goroutine owns a key stripe and models it exactly, half driving
// Apply/InsertBatch/DeleteBatch/GetBatch, half the singleton calls.
func TestKVBatchConcurrent(t *testing.T) {
	const (
		maxThreads = 4
		goroutines = 12
		batchSize  = 32
		batches    = 120
	)
	kv := mustKV(t, "hashmap", "hyaline", hyaline.KVOptions{MaxThreads: maxThreads})
	errc := make(chan string, goroutines)
	models := make([]map[uint64]bool, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 77))
			model := map[uint64]bool{}
			models[g] = model
			stripeKey := func() uint64 {
				return uint64(rng.Intn(256))*goroutines + uint64(g)
			}
			if g%2 == 0 {
				// Batched caller.
				ops := make([]hyaline.Op, 0, batchSize)
				expect := make([]bool, 0, batchSize)
				for b := 0; b < batches; b++ {
					ops, expect = ops[:0], expect[:0]
					for i := 0; i < batchSize; i++ {
						key := stripeKey()
						switch rng.Intn(3) {
						case 0:
							ops = append(ops, hyaline.Op{Kind: hyaline.OpInsert, Key: key, Val: kvChecksum(key)})
							expect = append(expect, !model[key])
							model[key] = true
						case 1:
							ops = append(ops, hyaline.Op{Kind: hyaline.OpDelete, Key: key})
							expect = append(expect, model[key])
							model[key] = false
						default:
							ops = append(ops, hyaline.Op{Kind: hyaline.OpGet, Key: key})
							expect = append(expect, model[key])
						}
					}
					for i, r := range kv.Apply(ops) {
						if r.OK != expect[i] {
							errc <- fmt.Sprintf("g %d batch %d: op %d (%s key %d) ok=%v want %v",
								g, b, i, ops[i].Kind, ops[i].Key, r.OK, expect[i])
							return
						}
						if ops[i].Kind == hyaline.OpGet && r.OK && r.Val != kvChecksum(ops[i].Key) {
							errc <- fmt.Sprintf("g %d: Get(%d) = %d, want %d", g, ops[i].Key, r.Val, kvChecksum(ops[i].Key))
							return
						}
					}
				}
			} else {
				// Singleton caller, same op budget.
				for i := 0; i < batches*batchSize; i++ {
					key := stripeKey()
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
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for e := range errc {
		t.Fatal(e)
	}

	// Quiescence: one GetBatch over every modeled key must agree with
	// the union of the models.
	want := 0
	var keys []uint64
	var expect []bool
	for _, model := range models {
		for key, present := range model {
			keys = append(keys, key)
			expect = append(expect, present)
			if present {
				want++
			}
		}
	}
	res := kv.GetBatch(nil, keys)
	for i, r := range res {
		if r.OK != expect[i] || (r.OK && r.Val != kvChecksum(keys[i])) {
			t.Fatalf("post-churn key %d: (%d,%v), model %v", keys[i], r.Val, r.OK, expect[i])
		}
	}
	if got := kv.Len(); got != want {
		t.Fatalf("Len = %d, models say %d", got, want)
	}
	kv.Flush()
	if un := kv.Stats().Unreclaimed(); un > 4096 {
		t.Fatalf("%d nodes unreclaimed after Flush", un)
	}
}

// TestBatchAllocFree is the batch analogue of TestKVGetAllocFree: a
// batch into reused buffers must not touch the Go heap — ApplyInto and
// GetBatch on the uint64 family, ApplyBytesInto and GetAppend on the
// bytes family. (GetBatch stages its ops in pooled scratch, which is
// what keeps the keys-only read path at zero.) That holds unsharded,
// and sharded when the store was built on one P, where the shard runs
// execute in turn on the caller; a sharded store built on several Ps
// may allocate one closure per run it hands to another goroutine, and
// nothing else (the WaitGroup lives in the pooled scratch).
func TestBatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		name          string
		shards, procs int
		limit         float64 // allocations allowed per batch
	}{
		{"unsharded", 1, 2, 0},
		{"2shards-1P", 2, 1, 0},
		{"2shards-2P", 2, 2, 1}, // the one spawned run's closure
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The store decides at construction whether runs go parallel.
			prev := runtime.GOMAXPROCS(tc.procs)
			kv := mustShardedKV(t, "hashmap", "hyaline", tc.shards, hyaline.KVOptions{MaxThreads: 8})
			kvb := mustShardedKVBytes(t, "blist", "hyaline", tc.shards, hyaline.KVOptions{MaxThreads: 8})
			runtime.GOMAXPROCS(prev)

			for k := uint64(0); k < 1024; k++ {
				kv.Insert(k, kvChecksum(k))
			}
			keys := make([]uint64, 64)
			ops := make([]hyaline.Op, len(keys))
			dst := make([]hyaline.Result, 0, len(keys))
			var base uint64
			next := func() {
				for i := range keys {
					keys[i] = (base + uint64(i)) % 2048
					ops[i] = hyaline.Op{Kind: hyaline.OpKind(i % 3), Key: keys[i], Val: kvChecksum(keys[i])}
				}
				base += 64
			}
			if avg := testing.AllocsPerRun(500, func() { next(); dst = kv.GetBatch(dst[:0], keys) }); avg > tc.limit {
				t.Errorf("GetBatch allocates %.2f objects/run, want <= %v", avg, tc.limit)
			}
			if avg := testing.AllocsPerRun(500, func() { next(); dst = kv.ApplyInto(dst[:0], ops) }); avg > tc.limit {
				t.Errorf("ApplyInto allocates %.2f objects/run, want <= %v", avg, tc.limit)
			}

			bkeys := make([][]byte, 16)
			bops := make([]hyaline.BytesOp, 0, 2*len(bkeys))
			for i := range bkeys {
				bkeys[i] = []byte(fmt.Sprintf("key-%02d", i))
				kvb.Insert(bkeys[i], []byte(fmt.Sprintf("value-%02d", i)))
				bops = append(bops, hyaline.BytesOp{Kind: hyaline.OpGet, Key: bkeys[i]},
					hyaline.BytesOp{Kind: hyaline.OpDelete, Key: []byte("absent")})
			}
			bdst := make([]hyaline.BytesResult, 0, len(bops))
			buf := make([]byte, 0, 1024)
			if avg := testing.AllocsPerRun(500, func() { bdst, buf = kvb.ApplyBytesInto(bdst[:0], buf[:0], bops) }); avg > tc.limit {
				t.Errorf("ApplyBytesInto allocates %.2f objects/run, want <= %v", avg, tc.limit)
			}
			for i := range bkeys {
				if r := bdst[2*i]; !r.OK || string(r.Val) != fmt.Sprintf("value-%02d", i) {
					t.Errorf("ApplyBytesInto get %d = (%q, %v)", i, r.Val, r.OK)
				}
			}
			if avg := testing.AllocsPerRun(500, func() { buf, _ = kvb.GetAppend(buf[:0], bkeys[3]) }); avg != 0 {
				t.Errorf("GetAppend allocates %.2f objects/run, want 0", avg)
			}
			if string(buf) != "value-03" {
				t.Errorf("GetAppend = %q", buf)
			}
		})
	}
}

// TestKVRangeAllocFree: Range keeps its per-shard cursors in a pool
// and never stores fn, so a scan allocates nothing — whether the caller
// built its callback once or passes a fresh capturing closure per call,
// unsharded (a merge of one shard) and over two shards, on the skiplist
// (logarithmic positioning) and the list alike. The scan is exactly one
// chunk long, so the run covers the full-chunk exit as well.
func TestKVRangeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, shards := range []int{1, 2} {
		for _, structure := range []string{"skiplist", "list"} {
			kv := mustShardedKV(t, structure, "hyaline", shards, hyaline.KVOptions{MaxThreads: 8})
			for k := uint64(0); k < 1024; k++ {
				kv.Insert(k, kvChecksum(k))
			}
			seen := 0
			fn := func(k, v uint64) bool { seen++; return true }
			for _, c := range []struct {
				name string
				scan func(lo uint64)
			}{
				{"a callback built once", func(lo uint64) { kv.Range(lo, lo+63, fn) }},
				{"a fresh closure per call", func(lo uint64) {
					kv.Range(lo, lo+63, func(k, v uint64) bool {
						if k >= lo { // captures this call's lo, so the closure is built per call
							seen++
						}
						return true
					})
				}},
			} {
				seen = 0
				lo := uint64(0)
				avg := testing.AllocsPerRun(500, func() {
					c.scan(lo)
					lo = (lo + 64) % 960
				})
				if avg != 0 {
					t.Errorf("%s, %d shards: a 64-key Range with %s allocates %.2f objects/run, want 0", structure, shards, c.name, avg)
				}
				if seen != 501*64 { // AllocsPerRun warms up with one extra run
					t.Errorf("%s, %d shards: scans with %s visited %d keys, want %d", structure, shards, c.name, seen, 501*64)
				}
			}
		}
	}
}

// FuzzKVApply feeds random op sequences — duplicate keys, deletes of
// absent keys, empty batches, batch splits at arbitrary points — through
// Apply and checks every Result and the final Len against a
// map[uint64]uint64 model. The first input byte picks the shard count
// (1..4), so one target covers the unsharded path and the split/exec/
// scatter path against the same single-map model: any routing artifact
// — lost ops, cross-shard reordering of a key's history, scatter
// misplacement — shows up as a Result or Len mismatch.
func FuzzKVApply(f *testing.F) {
	// Seed corpus, each under several shard counts: empty input, a
	// single insert+get, duplicate inserts, delete-absent, an explicit
	// empty batch (two splits in a row), and a longer mixed sequence
	// crossing a batch boundary.
	f.Add([]byte{})
	for shardByte := byte(0); shardByte < 4; shardByte++ {
		f.Add([]byte{shardByte})
		f.Add([]byte{shardByte, 1, 7, 9, 0, 7, 0})
		f.Add([]byte{shardByte, 1, 5, 1, 1, 5, 2, 2, 5, 0, 2, 5, 0})
		f.Add([]byte{shardByte, 2, 9, 0, 0, 9, 0})
		f.Add([]byte{shardByte, 3, 0, 0, 3, 0, 0, 1, 1, 1})
		f.Add([]byte{
			shardByte,
			1, 1, 10, 1, 2, 20, 3, 0, 0, 0, 1, 0,
			2, 1, 0, 1, 1, 30, 0, 1, 0, 3, 0, 0, 0, 2, 0,
		})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		shards := 1
		if len(data) > 0 {
			shards, data = int(data[0]%4)+1, data[1:]
		}
		kv, err := hyaline.NewShardedKV("hashmap", "hyaline", shards, hyaline.KVOptions{
			MaxThreads: 8,
			ArenaCap:   1 << 14,
		})
		if err != nil {
			t.Fatal(err)
		}
		if kv.Shards() != shards {
			t.Fatalf("Shards = %d, want %d", kv.Shards(), shards)
		}
		model := map[uint64]uint64{}
		var ops []hyaline.Op
		var expect []hyaline.Result

		apply := func() {
			res := kv.Apply(ops)
			if len(ops) == 0 {
				if res != nil {
					t.Fatalf("Apply of empty batch returned %v", res)
				}
			} else if len(res) != len(ops) {
				t.Fatalf("Apply returned %d results for %d ops", len(res), len(ops))
			}
			for i := range res {
				if res[i] != expect[i] {
					t.Fatalf("op %d (%s key %d): got %+v, want %+v",
						i, ops[i].Kind, ops[i].Key, res[i], expect[i])
				}
			}
			if got := kv.Len(); got != len(model) {
				t.Fatalf("Len = %d, model has %d", got, len(model))
			}
			ops, expect = ops[:0], expect[:0]
		}

		// Each op consumes 3 bytes: kind selector, key, value. Selector 3
		// flushes the pending batch (two in a row exercise empty batches).
		for len(data) >= 3 {
			sel, kb, vb := data[0]%4, data[1], data[2]
			data = data[3:]
			key, val := uint64(kb%64), uint64(vb)+1
			switch sel {
			case 0:
				v, ok := model[key]
				ops = append(ops, hyaline.Op{Kind: hyaline.OpGet, Key: key})
				expect = append(expect, hyaline.Result{Val: v, OK: ok})
			case 1:
				_, exists := model[key]
				ops = append(ops, hyaline.Op{Kind: hyaline.OpInsert, Key: key, Val: val})
				expect = append(expect, hyaline.Result{OK: !exists})
				if !exists {
					model[key] = val
				}
			case 2:
				_, exists := model[key]
				ops = append(ops, hyaline.Op{Kind: hyaline.OpDelete, Key: key})
				expect = append(expect, hyaline.Result{OK: exists})
				delete(model, key)
			default:
				apply()
			}
		}
		apply()

		// Cross-check the surviving model through the batch read path.
		keys := make([]uint64, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		for i, r := range kv.GetBatch(nil, keys) {
			if !r.OK || r.Val != model[keys[i]] {
				t.Fatalf("final GetBatch(%d) = %+v, model %d", keys[i], r, model[keys[i]])
			}
		}
		if n := kv.InFlight(); n != 0 {
			t.Fatalf("%d leases in flight after applies", n)
		}
	})
}

// applyRing is the length of the op stream an Apply benchmark draws
// once: a row applies consecutive windows of its batch size from it,
// wrapping at the end, so every row runs the same ops whatever its batch
// size. It is a multiple of every batch size the rows use.
const applyRing = 4096

// BenchmarkKVApply measures the per-operation cost of batched writes+
// reads against batch=1 (the singleton bracket through the same code
// path): the lease + Enter/Leave amortization must win from BatchSize
// ~16 up.
func BenchmarkKVApply(b *testing.B) {
	for _, size := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			kv := mustKV(b, "hashmap", "hyaline", hyaline.KVOptions{})
			for k := uint64(0); k < 10_000; k++ {
				kv.Insert(k, kvChecksum(k))
			}
			rng := rand.New(rand.NewSource(1))
			ops := make([]hyaline.Op, applyRing)
			for i := range ops {
				key := uint64(rng.Intn(20_000))
				switch i % 4 {
				case 0:
					ops[i] = hyaline.Op{Kind: hyaline.OpInsert, Key: key, Val: kvChecksum(key)}
				case 1:
					ops[i] = hyaline.Op{Kind: hyaline.OpDelete, Key: key}
				default:
					ops[i] = hyaline.Op{Kind: hyaline.OpGet, Key: key}
				}
			}
			dst := make([]hyaline.Result, 0, size)
			b.ReportAllocs()
			b.ResetTimer()
			// b.N counts individual operations, so ns/op is per op and
			// directly comparable across batch sizes.
			for n, at := 0, 0; n < b.N; n, at = n+size, (at+size)%applyRing {
				dst = kv.ApplyInto(dst[:0], ops[at:at+size])
			}
		})
	}
}

// BenchmarkKVGetBatch documents the allocation-free batched read path.
func BenchmarkKVGetBatch(b *testing.B) {
	const size = 64
	kv := mustKV(b, "hashmap", "hyaline", hyaline.KVOptions{})
	for k := uint64(0); k < 10_000; k++ {
		kv.Insert(k, kvChecksum(k))
	}
	keys := make([]uint64, size)
	for i := range keys {
		keys[i] = uint64(i * 101 % 20_000)
	}
	dst := make([]hyaline.Result, 0, size)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += size {
		dst = kv.GetBatch(dst[:0], keys)
	}
}
