package dstest

import (
	"slices"
	"testing"

	"hyaline/internal/arena"
	"hyaline/internal/list"
	"hyaline/internal/smr"
)

// Faults TestChurnCatchesFaults injects into a real list, on the model
// keys ≡ 0 mod 7.
const (
	lostDelete = iota // Delete reports success without deleting
	badValue          // Get returns a corrupted value
)

func faulty(k uint64) bool { return k%7 == 0 }

type faultyMap struct {
	Map
	fault int
}

func (m faultyMap) Delete(tid int, k uint64) bool {
	if m.fault == lostDelete && faulty(k) {
		return true
	}
	return m.Map.Delete(tid, k)
}

func (m faultyMap) Get(tid int, k uint64) (uint64, bool) {
	v, ok := m.Map.Get(tid, k)
	if m.fault == badValue && ok && faulty(k) {
		v++
	}
	return v, ok
}

// faultyBytes injects the same faults into a bytes list; its keys are
// the model keys through bytesKey, which is injective.
type faultyBytes struct {
	BytesMap
	fault int
	keys  map[string]bool // bytesKey of every faulty model key in range
}

func (m faultyBytes) Delete(tid int, k []byte) bool {
	if m.fault == lostDelete && m.keys[string(k)] {
		return true
	}
	return m.BytesMap.Delete(tid, k)
}

func (m faultyBytes) Get(tid int, k, dst []byte) ([]byte, bool) {
	n := len(dst)
	dst, ok := m.BytesMap.Get(tid, k, dst)
	if m.fault == badValue && ok && m.keys[string(k)] {
		dst[n+(len(dst)-n)/2] ^= 0x5a // one byte of the value
	}
	return dst, ok
}

// TestChurnCatchesFaults shows that each churn configuration's checks
// fire: with a lost Delete or a corrupted Get on one key in seven, the
// engine must report an op on such a key, in all five configurations.
func TestChurnCatchesFaults(t *testing.T) {
	opts := Options{KeySpace: 64, OpsPerThread: 2000}
	opts.fill()
	keys := map[string]bool{}
	for k := uint64(0); k < 1<<12; k += 7 {
		keys[string(bytesKey(k))] = true
	}
	// A lost Delete shows as a later op on the key (or the quiescent read
	// of it) disagreeing with the model; a bad value on any read of it.
	faults := []struct {
		name  string
		fault int
		ops   []string
	}{
		{"lost-delete", lostDelete, []string{"Insert", "Delete", "Get", "post-churn Get"}},
		{"bad-value", badValue, []string{"Get", "foreign Get", "post-churn Get"}},
	}
	for _, cfg := range []struct {
		name  string
		mode  tidMode
		bytes bool
	}{
		{"ConcurrentChurn", ownTid, false},
		{"SessionChurn", leasePerOp, false},
		{"BatchChurn", leasePerBatch, false},
		{"ShardedChurn", leaseOnShard, false},
		{"ConcurrentChurnBytes", ownTid, true},
	} {
		for _, fl := range faults {
			fault, ops := fl.fault, fl.ops
			t.Run(cfg.name+"/"+fl.name, func(t *testing.T) {
				fam := uint64Keys(func(a *arena.Arena, tr smr.Tracker) Map {
					return faultyMap{list.New(a, tr), fault}
				})
				if cfg.bytes {
					fam = byteKeys(func(a *arena.Arena, tr smr.Tracker) BytesMap {
						return faultyBytes{list.NewBytes(a, tr), fault, keys}
					})
				}
				c := newChurn(t, cfg.mode, fam, "hyaline", opts)
				if bound := uint64(c.keySpace * c.lanes); bound > 1<<12 {
					t.Fatalf("key space %d exceeds the faulty bytes keys", bound)
				}
				d := c.run(phaseSeed(t))
				if d == nil {
					t.Fatal("the engine reported no divergence")
				}
				if d.lane < 0 || !faulty(d.key) || !slices.Contains(ops, d.op) {
					t.Fatalf("report %q names no op in %q on a faulty key", d, ops)
				}
				t.Log(d)
			})
		}
	}
}
