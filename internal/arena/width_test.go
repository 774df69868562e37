package arena_test

import (
	"encoding/binary"
	"testing"
	"unsafe"

	"hyaline/internal/arena"
	"hyaline/internal/ds"
	"hyaline/internal/ptr"
	"hyaline/internal/smr"
	"hyaline/internal/trackers"
)

// classCount is a tracker that records which class each allocation asked
// for and checks that the arena handed out that class.
type classCount struct {
	smr.Tracker
	t            *testing.T
	a            *arena.Arena
	nodes, pairs int
}

func (c *classCount) Alloc(tid int) ptr.Index {
	idx := c.Tracker.Alloc(tid)
	if c.a.Wide(idx) {
		c.t.Errorf("Alloc returned pair %d", idx)
	}
	c.nodes++
	return idx
}

func (c *classCount) AllocWide(tid int) ptr.Index {
	idx := c.Tracker.AllocWide(tid)
	if !c.a.Wide(idx) || idx%2 != 0 {
		c.t.Errorf("AllocWide returned %d, not a pair on an even line", idx)
	}
	c.pairs++
	return idx
}

// TestStructuresPickTheirWidth: the structures whose nodes fit one line
// never ask for a pair; the skiplist asks for exactly one pair per tower
// of height 2 or more and a node for every other; Bonsai, which keeps
// every subtree size in a Tail, asks only for pairs.
func TestStructuresPickTheirWidth(t *testing.T) {
	if got := unsafe.Sizeof(arena.Node{}); got != 64 {
		t.Fatalf("sizeof(arena.Node) = %d, want 64", got)
	}
	const keys = 500
	for _, structure := range []string{"list", "hashmap", "natarajan", "blist", "skiplist", "bonsai"} {
		a := arena.New(1 << 14)
		tr := &classCount{Tracker: trackers.MustNew("epoch", a, trackers.Config{MaxThreads: 1}), t: t, a: a}
		insert := func(uint64) bool { return false }
		var m ds.Map
		if structure == "blist" {
			a.EnableBlobs(1 << 16)
			bm, err := ds.NewBytes(structure, a, tr, 1)
			if err != nil {
				t.Fatalf("%s: %v", structure, err)
			}
			insert = func(k uint64) bool {
				key := binary.BigEndian.AppendUint64(nil, k)
				return bm.Insert(0, key, key)
			}
		} else {
			var err error
			if m, err = ds.New(structure, a, tr, 1); err != nil {
				t.Fatalf("%s: %v", structure, err)
			}
			insert = func(k uint64) bool { return m.Insert(0, k, k) }
		}
		for k := uint64(1); k <= keys; k++ {
			tr.Enter(0)
			ok := insert(k * 7919 % 100_003)
			tr.Leave(0)
			if !ok {
				t.Fatalf("%s: insert #%d failed", structure, k)
			}
		}
		switch structure {
		case "skiplist":
			tall := 0
			for k := uint64(1); k <= keys; k++ {
				if m.(interface{ Height(uint64) int }).Height(k*7919%100_003) >= 2 {
					tall++
				}
			}
			if tr.pairs != tall || tr.nodes != keys-tall {
				t.Errorf("skiplist: %d pairs and %d nodes for %d towers of height >= 2 among %d keys", tr.pairs, tr.nodes, tall, keys)
			}
		case "bonsai":
			if tr.nodes != 0 || tr.pairs == 0 {
				t.Errorf("bonsai: %d nodes and %d pairs, want pairs only", tr.nodes, tr.pairs)
			}
		default:
			if tr.pairs != 0 || tr.nodes == 0 {
				t.Errorf("%s: %d nodes and %d pairs, want nodes only", structure, tr.nodes, tr.pairs)
			}
		}
	}
}
