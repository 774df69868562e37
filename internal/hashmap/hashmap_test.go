package hashmap

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"hyaline/internal/arena"
	"hyaline/internal/dstest"
	"hyaline/internal/smr"
	"hyaline/internal/trackers"
)

func factory(a *arena.Arena, tr smr.Tracker) dstest.Map {
	return New(a, tr, 1<<8) // small table: multi-node chains get exercised
}

func TestAllSchemes(t *testing.T) {
	dstest.RunAll(t, factory, dstest.Options{KeySpace: 2048})
}

// leakyMap builds a map nothing is reclaimed from, for the tests and
// benchmarks that are about the table and not about a scheme.
func leakyMap(nodes, buckets int) *Map {
	a := arena.New(nodes)
	return New(a, trackers.MustNew("leaky", a, trackers.Config{MaxThreads: 1}), buckets)
}

func TestBucketDistribution(t *testing.T) {
	m := leakyMap(1<<14, 1<<4)
	// Sequential keys must spread across buckets, not collide in one.
	heads := map[interface{}]int{}
	for k := uint64(0); k < 64; k++ {
		heads[m.bucket(k)]++
	}
	if len(heads) < 8 {
		t.Fatalf("64 sequential keys landed in only %d/16 buckets", len(heads))
	}
}

func TestPowerOfTwoBucketsEnforced(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two bucket count must panic")
		}
	}()
	leakyMap(16, 3)
}

func TestDefaultBuckets(t *testing.T) {
	m := leakyMap(16, 0)
	if len(m.buckets) != DefaultBuckets {
		t.Fatalf("default buckets = %d", len(m.buckets))
	}
}

// TestGeometry pins the two numbers the package comment argues from: a
// head is one word, and the default table is the 1 MiB that 2^14 padded
// heads occupied.
func TestGeometry(t *testing.T) {
	m := leakyMap(16, 0)
	if sz := unsafe.Sizeof(m.buckets[0]); sz != 8 {
		t.Fatalf("a bucket head is %d bytes, want 8 (unpadded)", sz)
	}
	if sz := uintptr(len(m.buckets)) * unsafe.Sizeof(m.buckets[0]); sz != 1<<20 {
		t.Fatalf("default table is %d bytes, want 1 MiB", sz)
	}
	if one := leakyMap(16, 1); one.bucket(^uint64(0)) != &one.buckets[0] {
		t.Fatal("a one-bucket map must index bucket 0")
	}
}

// benchmarkKeys is the repository benchmark's key shape: n distinct keys
// drawn uniformly from [0, keyRange) by a splitmix64 stream.
func benchmarkKeys(n int, keyRange uint64) []uint64 {
	seen := make(map[uint64]bool, n)
	keys := make([]uint64, 0, n)
	for x := uint64(1); len(keys) < n; {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		if k := (z ^ z>>31) % keyRange; !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// TestSpread checks that every bit of the key reaches the bucket index.
// For sequential keys, keys that differ only in a high byte (k << s) and
// the benchmark's own shape, a table must be filled about as well as a
// random function would fill it — (1 − 1/e) of min(keys, buckets)
// distinct buckets, with 10 % slack — and no chain may exceed 8. An index
// taken from the middle of the product fails the k<<48 and k<<56 rows.
//
// A multiplicative hash is not a random function, and 4 096 keys per
// strided shape is as far as this test reaches: a stride whose product
// with the constant lies near a small rational clusters once the keys
// outnumber that rational's denominator (65 536 keys k<<16 reach 8 162
// of 2^17 buckets, longest chain 10). Every multiplier has such strides.
func TestSpread(t *testing.T) {
	for _, buckets := range []int{DefaultBuckets, 1 << 8} {
		m := leakyMap(16, buckets)
		shapes := map[string][]uint64{"benchmark": benchmarkKeys(min(50_000, buckets), 100_000)}
		for _, s := range []uint{0, 8, 16, 24, 32, 40, 48, 56} {
			n := min(4096, buckets)
			if s == 56 {
				n = min(n, 256) // k << 56 has eight bits of room
			}
			keys := make([]uint64, n)
			for k := range keys {
				keys[k] = uint64(k) << s
			}
			name := "sequential"
			if s > 0 {
				name = fmt.Sprintf("k<<%d", s)
			}
			shapes[name] = keys
		}
		for name, keys := range shapes {
			chains := map[*atomic.Uint64]int{}
			longest := 0
			for _, k := range keys {
				h := m.bucket(k)
				chains[h]++
				longest = max(longest, chains[h])
			}
			want := 0.9 * (1 - 1/math.E) * float64(min(len(keys), buckets))
			if float64(len(chains)) < want || longest > 8 {
				t.Errorf("%d buckets, shape %s: %d keys reach %d buckets (want ≥ %.0f), longest chain %d (want ≤ 8)",
					buckets, name, len(keys), len(chains), want, longest)
			}
		}
	}
}

// lineHeads returns eight heads of m, stride apart, the first of which
// starts a 64-byte cache line: at stride 1 they are that line.
func lineHeads(m *Map, stride int) []int {
	first := int(-uintptr(unsafe.Pointer(&m.buckets[0])) % 64 / 8)
	heads := make([]int, 8)
	for i := range heads {
		heads[i] = first + i*stride
	}
	return heads
}

// keysAt returns perHead keys for each of the given heads of m, grouped
// by head in the order given.
func keysAt(m *Map, heads []int, perHead int) []uint64 {
	slot := map[*atomic.Uint64]int{}
	for i, h := range heads {
		slot[&m.buckets[h]] = i
	}
	keys := make([]uint64, len(heads)*perHead)
	filled := make([]int, len(heads))
	for k, missing := uint64(1), len(keys); missing > 0; k++ {
		if i, ok := slot[m.bucket(k)]; ok && filled[i] < perHead {
			keys[i*perHead+filled[i]] = k
			filled[i]++
			missing--
		}
	}
	return keys
}

// lineMap renames the conformance suite's small integer keys to keys
// whose chains all hang off one cache line of heads.
type lineMap struct {
	*Map
	keys []uint64
}

func (l lineMap) Insert(tid int, key, val uint64) bool {
	return l.Map.Insert(tid, l.keys[key], val)
}
func (l lineMap) Delete(tid int, key uint64) bool { return l.Map.Delete(tid, l.keys[key]) }
func (l lineMap) Get(tid int, key uint64) (uint64, bool) {
	return l.Map.Get(tid, l.keys[key])
}

// TestAdjacentHeads runs the concurrent churn, under every scheme, with
// all its keys confined to the eight heads of one cache line of the
// default table: up to 16 threads CAS neighbouring words, chains stay
// about two nodes long so most operations touch a head, and the model,
// checksum and accounting checks must hold as they do on spread keys.
func TestAdjacentHeads(t *testing.T) {
	const keySpace, maxThreads = 8, 16 // ConcurrentChurn's keys are < keySpace × threads
	opts := dstest.Options{KeySpace: keySpace, OpsPerThread: 20000, ArenaCap: 1 << 19}
	if testing.Short() {
		opts.OpsPerThread /= 2
	}
	for _, scheme := range trackers.Names() {
		t.Run(scheme, func(t *testing.T) {
			dstest.ConcurrentChurn(t, func(a *arena.Arena, tr smr.Tracker) dstest.Map {
				m := New(a, tr, 0)
				return lineMap{m, keysAt(m, lineHeads(m, 1), keySpace*maxThreads/8)}
			}, scheme, opts)
		})
	}
}

// BenchmarkHeads is the measurement behind "unpadded heads cost nothing":
// two goroutines on two Ps run insert/delete pairs, each on four keys of
// its own in four heads of its own. In same-line all eight heads share
// one cache line, the case padding exists for and the worst an unpadded
// table can do; in spread every head is on a line of its own, which is
// what uniformly hashed keys over 16 384 lines amount to. ns/op is one
// goroutine's insert+delete pair.
func BenchmarkHeads(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, c := range []struct {
		name   string
		stride int // heads between one key's head and the next
	}{{"same-line", 1}, {"spread", 64}} {
		b.Run(c.name, func(b *testing.B) {
			a := arena.New(1 << 16)
			tr := trackers.MustNew("hyaline", a, trackers.Config{MaxThreads: 2})
			m := New(a, tr, 0)
			keys := keysAt(m, lineHeads(m, c.stride), 1)
			var wg sync.WaitGroup
			b.ResetTimer()
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(tid int, keys []uint64) {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						k := keys[i%len(keys)]
						tr.Enter(tid)
						m.Insert(tid, k, k)
						tr.Leave(tid)
						tr.Enter(tid)
						m.Delete(tid, k)
						tr.Leave(tid)
					}
				}(g, keys[g*4:g*4+4])
			}
			wg.Wait()
		})
	}
}

// BenchmarkLen prices Map.Len — the wire LEN, Snapshot and STATS — at
// the benchmark's 50 000 entries on the default table.
func BenchmarkLen(b *testing.B) {
	m := leakyMap(1<<16, 0)
	for _, k := range benchmarkKeys(50_000, 100_000) {
		m.Insert(0, k, k)
	}
	if n := m.Len(); n != 50_000 {
		b.Fatalf("Len = %d", n)
	}
	for b.Loop() {
		m.Len()
	}
}
