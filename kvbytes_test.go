package hyaline_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"hyaline"
	"hyaline/internal/arena"
)

func newBytesKV(t *testing.T, scheme string) *hyaline.KVBytes {
	t.Helper()
	kv, err := hyaline.NewKVBytes("blist", scheme, hyaline.KVOptions{
		MaxThreads: 8, ArenaCap: 1 << 16, BlobClassBudget: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return kv
}

func TestKVBytesRoundTrip(t *testing.T) {
	kv := newBytesKV(t, "hyaline")
	if !kv.Insert([]byte("alpha"), []byte("first")) {
		t.Fatal("Insert alpha failed")
	}
	if kv.Insert([]byte("alpha"), []byte("second")) {
		t.Fatal("duplicate Insert succeeded")
	}
	if v, ok := kv.Get([]byte("alpha")); !ok || string(v) != "first" {
		t.Fatalf("Get = (%q, %v)", v, ok)
	}
	if _, ok := kv.Get([]byte("beta")); ok {
		t.Fatal("Get of absent key hit")
	}
	if !kv.Delete([]byte("alpha")) || kv.Delete([]byte("alpha")) {
		t.Fatal("Delete semantics wrong")
	}
	// Zero-length keys and values are legal payloads.
	if !kv.Insert([]byte{}, []byte{}) {
		t.Fatal("empty-key insert failed")
	}
	if v, ok := kv.Get(nil); !ok || len(v) != 0 {
		t.Fatalf("empty Get = (%v, %v)", v, ok)
	}
	if kv.Len() != 1 {
		t.Fatalf("Len = %d", kv.Len())
	}
}

// TestKVBytesEmptyKey pins that nil and []byte{} are one key through
// the store, sharded or not: insert with one, then get and delete with
// the other, beside "\x00", whose order word in the list is also 0.
func TestKVBytesEmptyKey(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, keys := range [][2][]byte{{nil, {}}, {{}, nil}} {
			ins, other := keys[0], keys[1]
			kv, err := hyaline.NewShardedKVBytes("blist", "hyaline", shards, hyaline.KVOptions{
				MaxThreads: 2, ArenaCap: 1 << 10, BlobClassBudget: 1 << 14,
			})
			if err != nil {
				t.Fatal(err)
			}
			kv.Insert([]byte("\x00"), []byte("z"))
			if !kv.Insert(ins, []byte("e")) || kv.Insert(other, []byte("x")) {
				t.Fatalf("shards %d: Insert(%#v) then Insert(%#v): want true, false", shards, ins, other)
			}
			if v, ok := kv.Get(other); !ok || string(v) != "e" {
				t.Fatalf("shards %d: Get(%#v) = (%q, %v), want \"e\"", shards, other, v, ok)
			}
			if !kv.Delete(other) || kv.Delete(ins) {
				t.Fatalf("shards %d: Delete(%#v) then Delete(%#v): want true, false", shards, other, ins)
			}
			if v, ok := kv.Get([]byte("\x00")); !ok || string(v) != "z" || kv.Len() != 1 {
				t.Fatalf("shards %d: Get(\"\\x00\") = (%q, %v), Len %d after the empty key went", shards, v, ok, kv.Len())
			}
		}
	}
}

func TestKVBytesGetAppend(t *testing.T) {
	kv := newBytesKV(t, "epoch")
	kv.Insert([]byte("k1"), []byte("vvv1"))
	kv.Insert([]byte("k2"), []byte("vvv2"))
	buf := make([]byte, 0, 64)
	buf, ok := kv.GetAppend(buf, []byte("k1"))
	if !ok || string(buf) != "vvv1" {
		t.Fatalf("first append = %q, %v", buf, ok)
	}
	buf, ok = kv.GetAppend(buf, []byte("k2"))
	if !ok || string(buf) != "vvv1vvv2" {
		t.Fatalf("second append = %q, %v", buf, ok)
	}
	if buf, ok = kv.GetAppend(buf, []byte("nope")); ok || string(buf) != "vvv1vvv2" {
		t.Fatalf("miss mutated dst: %q, %v", buf, ok)
	}
}

func TestKVBytesApplyInto(t *testing.T) {
	kv := newBytesKV(t, "hyaline-1s")
	// Interleave inserts, gets and deletes; Get values must alias the
	// batch buffer and survive buffer reallocation mid-batch.
	var ops []hyaline.BytesOp
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		val := bytes.Repeat([]byte{byte(i)}, 1+i%500)
		ops = append(ops,
			hyaline.BytesOp{Kind: hyaline.OpInsert, Key: key, Val: val},
			hyaline.BytesOp{Kind: hyaline.OpGet, Key: key},
		)
	}
	ops = append(ops, hyaline.BytesOp{Kind: hyaline.OpDelete, Key: []byte("key-0000")})
	res, _ := kv.ApplyBytesInto(nil, make([]byte, 0, 8), ops)
	if len(res) != len(ops) {
		t.Fatalf("%d results for %d ops", len(res), len(ops))
	}
	for i := 0; i < 200; i++ {
		if !res[2*i].OK {
			t.Fatalf("insert %d failed", i)
		}
		got := res[2*i+1]
		want := bytes.Repeat([]byte{byte(i)}, 1+i%500)
		if !got.OK || !bytes.Equal(got.Val, want) {
			t.Fatalf("get %d = ok=%v len=%d, want len=%d", i, got.OK, len(got.Val), len(want))
		}
	}
	if !res[len(res)-1].OK {
		t.Fatal("delete failed")
	}
}

func TestKVBytesBatches(t *testing.T) {
	kv := newBytesKV(t, "ibr")
	n := 300 // spans several Trim chunks
	keys := make([][]byte, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%06d", i))
		vals[i] = []byte(fmt.Sprintf("val=%d", i*i))
	}
	for i, ok := range kv.InsertBatch(keys, vals) {
		if !ok {
			t.Fatalf("InsertBatch[%d] failed", i)
		}
	}
	res, _ := kv.GetBatch(nil, nil, keys)
	for i, r := range res {
		if !r.OK || !bytes.Equal(r.Val, vals[i]) {
			t.Fatalf("GetBatch[%d] = (%q, %v)", i, r.Val, r.OK)
		}
	}
	for i, ok := range kv.DeleteBatch(keys[:100]) {
		if !ok {
			t.Fatalf("DeleteBatch[%d] failed", i)
		}
	}
	if kv.Len() != n-100 {
		t.Fatalf("Len = %d, want %d", kv.Len(), n-100)
	}
	if kv.InFlight() != 0 {
		t.Fatalf("InFlight = %d at quiescence", kv.InFlight())
	}
}

func mustShardedKVBytes(t testing.TB, structure, scheme string, shards int, opts hyaline.KVOptions) *hyaline.ShardedKVBytes {
	t.Helper()
	kv, err := hyaline.NewShardedKVBytes(structure, scheme, shards, opts)
	if err != nil {
		t.Fatalf("NewShardedKVBytes(%s, %s, %d): %v", structure, scheme, shards, err)
	}
	return kv
}

// TestKVBytesBasic runs the singleton surface and the aggregates at
// shards == 1 and shards > 1: the same engine, so the same assertions.
func TestKVBytesBasic(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testKVBytesBasic(t, shards) })
	}
}

func testKVBytesBasic(t *testing.T, shards int) {
	kv := mustShardedKVBytes(t, "blist", "hyaline", shards, hyaline.KVOptions{MaxThreads: 8})
	if kv.Shards() != shards || kv.Structure() != "blist" || kv.Scheme() != "hyaline" || kv.MaxThreads() < 8 {
		t.Fatalf("Shards/Structure/Scheme/MaxThreads = %d/%q/%q/%d", kv.Shards(), kv.Structure(), kv.Scheme(), kv.MaxThreads())
	}
	const n = 300
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 1+i%32) }
	for i := 0; i < n; i++ {
		if !kv.Insert(key(i), val(i)) {
			t.Fatalf("Insert(%d) failed", i)
		}
		if kv.Insert(key(i), nil) {
			t.Fatalf("duplicate Insert(%d) succeeded", i)
		}
	}
	for i := 0; i < n; i++ {
		v, ok := kv.Get(key(i))
		if !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%d) = %q,%v", i, v, ok)
		}
	}
	if got := kv.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	snap := kv.Snapshot()
	if snap.Shards != shards || snap.Len != n {
		t.Fatalf("Snapshot = %+v", snap)
	}
	if bs := kv.BlobStats(); bs.Live() <= 0 {
		t.Fatalf("BlobStats = %+v, want live blobs", bs)
	}
	for i := 0; i < n; i += 2 {
		if !kv.Delete(key(i)) {
			t.Fatalf("Delete(%d) failed", i)
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

// TestShardedKVBytesApplyMatchesUnsharded mirrors the uint64 property
// test: identical BytesOp streams through a sharded and an unsharded
// KVBytes must produce identical results position for position, with
// every hit value copied into the caller's buffer.
func TestShardedKVBytesApplyMatchesUnsharded(t *testing.T) {
	sharded := mustShardedKVBytes(t, "blist", "hyaline", 4, hyaline.KVOptions{MaxThreads: 8})
	plain, err := hyaline.NewKVBytes("blist", "hyaline", hyaline.KVOptions{MaxThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	var ops []hyaline.BytesOp
	var dst []hyaline.BytesResult
	var buf []byte
	for round := 0; round < 40; round++ {
		ops = ops[:0]
		for i := 0; i < rng.Intn(120); i++ {
			op := hyaline.BytesOp{
				Kind: hyaline.OpKind(rng.Intn(3)),
				Key:  []byte(fmt.Sprintf("k%03d", rng.Intn(128))),
			}
			if op.Kind == hyaline.OpInsert {
				op.Val = bytes.Repeat([]byte{byte(rng.Intn(256))}, rng.Intn(64))
			}
			ops = append(ops, op)
		}
		dst, buf = sharded.ApplyBytesInto(dst[:0], buf[:0], ops)
		want := plain.ApplyBytes(ops)
		if len(dst) != len(want) {
			t.Fatalf("round %d: %d results vs %d", round, len(dst), len(want))
		}
		for i := range dst {
			if dst[i].OK != want[i].OK || !bytes.Equal(dst[i].Val, want[i].Val) {
				t.Fatalf("round %d op %d (%s %q): sharded {%q %v}, unsharded {%q %v}",
					round, i, ops[i].Kind, ops[i].Key, dst[i].Val, dst[i].OK, want[i].Val, want[i].OK)
			}
		}
	}
	if sharded.Len() != plain.Len() {
		t.Fatalf("Len diverged: sharded %d, unsharded %d", sharded.Len(), plain.Len())
	}

	// Batch helpers route through the same scatter machinery.
	keys := [][]byte{[]byte("bk-a"), []byte("bk-b"), []byte("bk-c")}
	vals := [][]byte{[]byte("va"), {}, bytes.Repeat([]byte("x"), 200)}
	for i, ok := range sharded.InsertBatch(keys, vals) {
		if !ok {
			t.Fatalf("InsertBatch key %d failed", i)
		}
	}
	res, rbuf := sharded.GetBatch(nil, nil, keys)
	for i := range keys {
		if !res[i].OK || !bytes.Equal(res[i].Val, vals[i]) {
			t.Fatalf("GetBatch[%d] = {%q %v}, want %q", i, res[i].Val, res[i].OK, vals[i])
		}
	}
	_ = rbuf
	for i, ok := range sharded.DeleteBatch(keys) {
		if !ok {
			t.Fatalf("DeleteBatch key %d failed", i)
		}
	}
}

// TestKVBytesConcurrent churns the bytes map from many goroutines with
// content-checked values (value derivable from key), under the two
// scheme families with the most distinct protection protocols.
func TestKVBytesConcurrent(t *testing.T) {
	for _, scheme := range []string{"hyaline", "hp"} {
		t.Run(scheme, func(t *testing.T) {
			kv := newBytesKV(t, scheme)
			iters := 400
			if testing.Short() {
				iters = 80
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					var buf []byte
					for i := 0; i < iters; i++ {
						k := rng.Intn(64)
						key := []byte(fmt.Sprintf("key-%02d", k))
						switch rng.Intn(3) {
						case 0:
							kv.Insert(key, bytes.Repeat([]byte{byte(k)}, 3+k))
						case 1:
							kv.Delete(key)
						default:
							var ok bool
							buf = buf[:0]
							if buf, ok = kv.GetAppend(buf, key); ok {
								want := bytes.Repeat([]byte{byte(k)}, 3+k)
								if !bytes.Equal(buf, want) {
									panic(fmt.Sprintf("value corruption under %s: key %q got %x", scheme, key, buf))
								}
							}
						}
					}
				}(g)
			}
			wg.Wait()
			kv.Flush()
			if got, want := kv.BlobStats().Live(), int64(2*kv.Len()); got < want {
				t.Fatalf("blob Live = %d < 2×Len = %d (blob leak accounting broken)", got, want)
			}
		})
	}
}

// benchBytesKV builds a bytes KV prefilled with n fixed-size entries,
// keys "k%07d", for the Get/Apply payload benchmarks. The returned keys
// slice lets hot loops pick keys without formatting per op.
func benchBytesKV(b *testing.B, n, valueSize int) (*hyaline.KVBytes, [][]byte) {
	b.Helper()
	kv, err := hyaline.NewKVBytes("blist", "hyaline", hyaline.KVOptions{
		MaxThreads: 32, ArenaCap: 1 << 16, BlobClassBudget: 1 << 26,
	})
	if err != nil {
		b.Fatal(err)
	}
	val := bytes.Repeat([]byte{0xA5}, valueSize)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%07d", i))
		if !kv.Insert(keys[i], val) {
			b.Fatalf("prefill Insert(%s) failed", keys[i])
		}
	}
	return kv, keys
}

// BenchmarkKVBytesGet is the bytes twin of BenchmarkKVGet: the same
// leased read path plus one blob copy per hit. Compare the two to see
// the payload-size cost the figure-23 curves plot.
func BenchmarkKVBytesGet(b *testing.B) {
	for _, size := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("valuesize=%d", size), func(b *testing.B) {
			kv, keys := benchBytesKV(b, 10_000, size)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(rand.Int63()))
				var dst []byte
				for pb.Next() {
					dst, _ = kv.GetAppend(dst[:0], keys[rng.Intn(len(keys))])
				}
			})
		})
	}
}

// BenchmarkKVBytesApply is the bytes twin of BenchmarkKVApply, with the
// same op mix and batch sizes; ns/op is per operation, so rows are
// directly comparable between the two benchmarks.
func BenchmarkKVBytesApply(b *testing.B) {
	const valueSize = 128
	for _, size := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			kv, keys := benchBytesKV(b, 10_000, valueSize)
			val := bytes.Repeat([]byte{0x5A}, valueSize)
			rng := rand.New(rand.NewSource(1))
			ops := make([]hyaline.BytesOp, size)
			for i := range ops {
				key := keys[rng.Intn(len(keys))]
				switch i % 4 {
				case 0:
					ops[i] = hyaline.BytesOp{Kind: hyaline.OpInsert, Key: key, Val: val}
				case 1:
					ops[i] = hyaline.BytesOp{Kind: hyaline.OpDelete, Key: key}
				default:
					ops[i] = hyaline.BytesOp{Kind: hyaline.OpGet, Key: key}
				}
			}
			dst := make([]hyaline.BytesResult, 0, size)
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += size {
				dst, buf = kv.ApplyBytesInto(dst[:0], buf[:0], ops)
			}
		})
	}
}

// TestNewKVBytesRejectsBeforeAllocating: a rejected structure/scheme
// combination must error out before the constructor commits resources —
// the arena and its blob slabs in particular. The pre-fix constructor
// allocated the full arena (and built the tracker and structure) before
// validating, which rejectsBeforeAllocating would catch immediately.
func TestNewKVBytesRejectsBeforeAllocating(t *testing.T) {
	combos := []struct{ structure, scheme string }{
		{"no-such-structure", "hyaline"},
		{"blist", "no-such-scheme"},
		{"no-such-structure", "no-such-scheme"},
	}
	for _, c := range combos {
		name := fmt.Sprintf("NewKVBytes(%q, %q)", c.structure, c.scheme)
		rejectsBeforeAllocating(t, name, func() error {
			kv, err := hyaline.NewKVBytes(c.structure, c.scheme, hyaline.KVOptions{
				MaxThreads: 8, ArenaCap: 1 << 20, BlobClassBudget: 1 << 24,
			})
			if kv != nil {
				t.Fatalf("%s returned a KV alongside the error", name)
			}
			return err
		})
	}
}

// rejectsBeforeAllocating calls build, a constructor that must fail,
// and fails t if it committed a slab first. arena.Mapped catches a
// mapped slab: it must not grow across a rejected call (an unrelated
// arena's cleanup can only lower it). TotalAlloc catches a Go-heap slab,
// as in race builds: the error path may allocate its error value and
// message, a few hundred bytes, where the arena at the ArenaCap the
// callers pass is 128 MiB.
func rejectsBeforeAllocating(t *testing.T, name string, build func() error) {
	t.Helper()
	const rounds = 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		m := arena.Mapped()
		if err := build(); err == nil {
			t.Fatalf("%s succeeded, want an error", name)
		}
		if grew := arena.Mapped() - m; grew > 0 {
			t.Fatalf("%s mapped %d slab bytes before failing, want 0", name, grew)
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / rounds; perCall > 16<<10 {
		t.Errorf("%s error path allocated %d bytes per call, want <= 16KiB", name, perCall)
	}
}
