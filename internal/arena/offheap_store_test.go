//go:build (linux || darwin || freebsd) && !race

package arena_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
	"time"

	"hyaline"
	"hyaline/internal/arena"
)

// bytesVal is key k's value in the bytes stores below: 1..40 bytes of
// one fill byte, so a read of recycled or unmapped memory cannot pass.
func bytesVal(k uint64) []byte { return bytes.Repeat([]byte{byte(k) | 1}, 1+int(k%40)) }

func bytesKey(buf *[8]byte, k uint64) []byte {
	binary.BigEndian.PutUint64(buf[:], k)
	return buf[:]
}

// settledMapped collects until no arena dropped earlier is left to
// unmap, and returns Mapped then.
func settledMapped() int64 {
	m := arena.Mapped()
	for {
		runtime.GC()
		time.Sleep(time.Millisecond) // the cleanups run on their own goroutine
		n := arena.Mapped()
		if n == m {
			return n
		}
		m = n
	}
}

// TestDroppedArenasUnmap: a store nobody references gives its slabs
// back. 100 two-shard bytes stores, each with nodes and blobs touched,
// are built and dropped; the garbage collector's cleanups must bring
// Mapped back to where it started.
func TestDroppedArenasUnmap(t *testing.T) {
	base := settledMapped()
	opts := hyaline.KVOptions{MaxThreads: 2, ArenaCap: 1 << 12, BlobClassBudget: 1 << 14}
	var kb [8]byte
	stores := make([]*hyaline.KVBytes, 100)
	for i := range stores {
		kv, err := hyaline.NewShardedKVBytes("blist", "hyaline", 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 32; k++ {
			kv.Insert(bytesKey(&kb, k), bytesVal(k))
		}
		for k := uint64(0); k < 32; k += 3 {
			kv.Delete(bytesKey(&kb, k))
		}
		if kv.BlobStats().Live() == 0 || kv.Live() == 0 {
			t.Fatalf("store %d touched no nodes or blobs", i)
		}
		stores[i] = kv
	}
	if m := arena.Mapped(); m <= base {
		t.Fatalf("100 live stores but Mapped = %d, baseline %d: their slabs are not mapped", m, base)
	}
	stores = nil
	deadline := time.Now().Add(5 * time.Second)
	for arena.Mapped() > base {
		if time.Now().After(deadline) {
			t.Fatalf("Mapped = %d bytes 5 s after the stores were dropped, baseline %d", arena.Mapped(), base)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestUnmapNeverOutrunsAnOperation: with the garbage collector running
// back to back, workers build small stores, operate on them from
// several goroutines and drop them. Each builder lets go of its store as
// soon as the operating goroutines hold it, so a store's last operation
// runs with nothing but its own call frames keeping the arena reachable:
// if the store's reference did not span the whole operation, the
// cleanup would unmap a slab under a live *Node and the read would
// fault (SIGSEGV) or see a wrong value.
func TestUnmapNeverOutrunsAnOperation(t *testing.T) {
	stop := make(chan struct{})
	gcDone := make(chan struct{})
	go func() {
		defer close(gcDone)
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
			}
		}
	}()
	defer func() {
		close(stop)
		<-gcDone
	}()

	rounds := 30
	if testing.Short() {
		rounds = 8
	}
	schemes := hyaline.Schemes()
	const builders = 2
	var wg sync.WaitGroup
	for b := 0; b < builders; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var ops sync.WaitGroup
				scheme := schemes[(b+r)%len(schemes)]
				if r%2 == 0 {
					startKV(t, &ops, scheme)
				} else {
					startKVBytes(t, &ops, scheme)
				}
				ops.Wait()
			}
		}()
	}
	wg.Wait()
}

// operators is how many goroutines share one store in
// TestUnmapNeverOutrunsAnOperation; startKV and startKVBytes return with
// the store referenced only by those goroutines.
const operators = 3

func startKV(t *testing.T, ops *sync.WaitGroup, scheme string) {
	kv, err := hyaline.NewShardedKV("skiplist", scheme, 2, hyaline.KVOptions{MaxThreads: 2 * operators, ArenaCap: 1 << 14})
	if err != nil {
		t.Error(err)
		return
	}
	val := func(k uint64) uint64 { return k*0x9E3779B97F4A7C15 | 1 }
	for g := 0; g < operators; g++ {
		ops.Add(1)
		go func() {
			defer ops.Done()
			for i := uint64(0); i < 600; i++ {
				k := (i*7 + uint64(g)*131) % 256
				switch i % 6 {
				case 0, 1:
					kv.Insert(k, val(k))
				case 2:
					kv.Delete(k)
				case 3:
					if v, ok := kv.Get(k); ok && v != val(k) {
						t.Errorf("%s: Get(%d) = %#x, want %#x", scheme, k, v, val(k))
						return
					}
				case 4:
					batch := []hyaline.Op{{Kind: hyaline.OpInsert, Key: k, Val: val(k)}, {Kind: hyaline.OpGet, Key: k + 1}}
					if r := kv.Apply(batch)[1]; r.OK && r.Val != val(k+1) {
						t.Errorf("%s: batched Get(%d) = %#x, want %#x", scheme, k+1, r.Val, val(k+1))
						return
					}
				case 5:
					n := 0
					kv.Range(k, k+64, func(key, v uint64) bool {
						if v != val(key) {
							t.Errorf("%s: Range saw %d -> %#x, want %#x", scheme, key, v, val(key))
							return false
						}
						if n++; n%8 == 0 {
							runtime.Gosched() // let the collector run mid-scan
						}
						return true
					})
				}
			}
		}()
	}
}

func startKVBytes(t *testing.T, ops *sync.WaitGroup, scheme string) {
	kv, err := hyaline.NewShardedKVBytes("blist", scheme, 2, hyaline.KVOptions{MaxThreads: 2 * operators, ArenaCap: 1 << 12, BlobClassBudget: 1 << 15})
	if err != nil {
		t.Error(err)
		return
	}
	for g := 0; g < operators; g++ {
		ops.Add(1)
		go func() {
			defer ops.Done()
			var kb [8]byte
			var dst []byte
			var res []hyaline.BytesResult
			keys := make([][]byte, 2)
			for i := uint64(0); i < 600; i++ {
				k := (i*5 + uint64(g)*97) % 64
				switch i % 4 {
				case 0, 1:
					kv.Insert(bytesKey(&kb, k), bytesVal(k))
				case 2:
					kv.Delete(bytesKey(&kb, k))
				case 3:
					var ok bool
					if dst, ok = kv.GetAppend(dst[:0], bytesKey(&kb, k)); ok && !bytes.Equal(dst, bytesVal(k)) {
						t.Errorf("%s: Get(%d) = %x, want %x", scheme, k, dst, bytesVal(k))
						return
					}
					keys[0] = bytesKey(&kb, k)
					keys[1] = binary.BigEndian.AppendUint64(keys[1][:0], k+1)
					res, dst = kv.GetBatch(res[:0], dst[:0], keys)
					for j, r := range res {
						if want := bytesVal(k + uint64(j)); r.OK && !bytes.Equal(r.Val, want) {
							t.Errorf("%s: batched Get(%d) = %x, want %x", scheme, k+uint64(j), r.Val, want)
							return
						}
					}
				}
			}
		}()
	}
}
