package list

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"hyaline/internal/arena"
	"hyaline/internal/dstest"
	"hyaline/internal/smr"
	"hyaline/internal/trackers"
)

func factory(a *arena.Arena, tr smr.Tracker) dstest.Map {
	return New(a, tr)
}

// suiteOptions serves both key families' suites. Lists are slow; keep
// the churn volume moderate.
var suiteOptions = dstest.Options{OpsPerThread: 4000, KeySpace: 64}

func TestAllSchemes(t *testing.T) {
	dstest.RunAll(t, factory, suiteOptions)
}

func TestFreedReads(t *testing.T) {
	dstest.FreedReads(t, factory, suiteOptions)
}

func TestSortedOrder(t *testing.T) {
	a := arena.New(1 << 12)
	tr := trackers.MustNew("hyaline", a, trackers.Config{MaxThreads: 1, Slots: 2, MinBatch: 8})
	l := New(a, tr)
	in := []uint64{5, 1, 9, 3, 7, 2, 8, 4, 6, 0}
	for _, k := range in {
		tr.Enter(0)
		if !l.Insert(0, k, k) {
			t.Fatalf("insert %d failed", k)
		}
		tr.Leave(0)
	}
	keys := l.Keys()
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatalf("keys not sorted: %v", keys)
	}
	if len(keys) != len(in) {
		t.Fatalf("len %d, want %d", len(keys), len(in))
	}
}

func TestRange(t *testing.T) {
	a := arena.New(1 << 12)
	tr := trackers.MustNew("epoch", a, trackers.Config{MaxThreads: 1})
	l := New(a, tr)
	collect := func(lo, hi uint64) (keys, vals []uint64) {
		tr.Enter(0)
		defer tr.Leave(0)
		l.Range(0, lo, hi, func(k, v uint64) bool {
			keys = append(keys, k)
			vals = append(vals, v)
			return true
		})
		return
	}

	if keys, _ := collect(0, ^uint64(0)); len(keys) != 0 {
		t.Fatalf("empty list scan returned %v", keys)
	}
	for _, k := range []uint64{5, 1, 9, 3, 7, ^uint64(0)} {
		tr.Enter(0)
		l.Insert(0, k, k*2)
		tr.Leave(0)
	}
	// Inclusive bounds, sorted output, correct values.
	keys, vals := collect(3, 7)
	if want := []uint64{3, 5, 7}; len(keys) != 3 || keys[0] != want[0] || keys[1] != want[1] || keys[2] != want[2] {
		t.Fatalf("Range[3,7] = %v, want %v", keys, want)
	}
	for i, k := range keys {
		if vals[i] != k*2 {
			t.Fatalf("key %d carries value %d", k, vals[i])
		}
	}
	// hi < lo is empty, not a panic.
	if keys, _ := collect(7, 3); len(keys) != 0 {
		t.Fatalf("inverted range returned %v", keys)
	}
	// The maximum key is reachable without the cursor overflowing.
	if keys, _ := collect(^uint64(0)-1, ^uint64(0)); len(keys) != 1 || keys[0] != ^uint64(0) {
		t.Fatalf("max-key range = %v", keys)
	}
	// Deleted keys disappear from scans.
	tr.Enter(0)
	l.Delete(0, 5)
	tr.Leave(0)
	if keys, _ := collect(3, 7); len(keys) != 2 || keys[0] != 3 || keys[1] != 7 {
		t.Fatalf("Range after delete = %v", keys)
	}
	// Early termination stops the walk where fn says.
	var seen []uint64
	tr.Enter(0)
	l.Range(0, 0, ^uint64(0), func(k, _ uint64) bool {
		seen = append(seen, k)
		return len(seen) < 2
	})
	tr.Leave(0)
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 3 {
		t.Fatalf("early-terminated scan saw %v", seen)
	}
}

// TestQuickAgainstModel drives random op sequences through the list and
// a reference map simultaneously (property-based, single-threaded).
func TestQuickAgainstModel(t *testing.T) {
	f := func(ops []uint16) bool {
		a := arena.New(1 << 14)
		tr := trackers.MustNew("epoch", a, trackers.Config{MaxThreads: 1})
		l := New(a, tr)
		ref := map[uint64]uint64{}
		for _, op := range ops {
			key := uint64(op % 32)
			kind := (op / 32) % 3
			tr.Enter(0)
			switch kind {
			case 0:
				got := l.Insert(0, key, key+100)
				_, exists := ref[key]
				if got == exists {
					return false
				}
				if got {
					ref[key] = key + 100
				}
			case 1:
				got := l.Delete(0, key)
				_, exists := ref[key]
				if got != exists {
					return false
				}
				delete(ref, key)
			default:
				v, ok := l.Get(0, key)
				rv, exists := ref[key]
				if ok != exists || (ok && v != rv) {
					return false
				}
			}
			tr.Leave(0)
		}
		return l.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteRetiresExactlyOnce(t *testing.T) {
	// Heavy same-key contention: each successful delete retires the node
	// exactly once; the arena double-free panic would catch a second
	// retire. At quiescence all retirees must drain.
	a := arena.New(1 << 16)
	tr := trackers.MustNew("hyaline", a, trackers.Config{MaxThreads: 1, Slots: 1, MinBatch: 4})
	l := New(a, tr)
	for i := 0; i < 5000; i++ {
		tr.Enter(0)
		if !l.Insert(0, 1, 2) {
			t.Fatal("insert failed")
		}
		tr.Leave(0)
		tr.Enter(0)
		if !l.Delete(0, 1) {
			t.Fatal("delete failed")
		}
		tr.Leave(0)
	}
	if fl, ok := tr.(smr.Flusher); ok {
		fl.Flush(0)
	}
	if un := tr.Stats().Unreclaimed(); un != 0 {
		t.Fatalf("%d unreclaimed", un)
	}
	if live := a.Live(); live != 0 {
		t.Fatalf("%d live nodes leaked", live)
	}
}

// BenchmarkGet times one bracketed Get per iteration under hyaline,
// for each key family, over a 256-key universe with every other key
// present. A per-hop change is a few ns per Get: compare with
// -count=10 and benchstat, not one run.
func BenchmarkGet(b *testing.B) {
	const universe = 256
	b.Run("list", func(b *testing.B) {
		a := arena.New(1 << 12)
		tr := trackers.MustNew("hyaline", a, trackers.Config{MaxThreads: 1})
		l := New(a, tr)
		tr.Enter(0)
		for k := uint64(0); k < universe; k += 2 {
			l.Insert(0, k, k)
		}
		tr.Leave(0)
		for i := uint64(0); b.Loop(); i++ {
			tr.Enter(0)
			l.Get(0, i%universe)
			tr.Leave(0)
		}
	})
	b.Run("blist", func(b *testing.B) {
		a := arena.New(1 << 12)
		a.EnableBlobs(1 << 16)
		tr := trackers.MustNew("hyaline", a, trackers.Config{MaxThreads: 1})
		l := NewBytes(a, tr)
		keys := make([][]byte, universe)
		for k := range keys {
			keys[k] = fmt.Appendf(nil, "key:%03d", k)
		}
		tr.Enter(0)
		for k := 0; k < universe; k += 2 {
			l.Insert(0, keys[k], keys[k])
		}
		tr.Leave(0)
		buf := make([]byte, 0, 16)
		for i := 0; b.Loop(); i++ {
			tr.Enter(0)
			l.Get(0, keys[i%universe], buf)
			tr.Leave(0)
		}
	})
}
