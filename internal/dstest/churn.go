// The churn engine: one loop behind the five model-checked churn phases.
//
// Lanes run concurrently. Lane i owns the key stripe
// {k·lanes + i : k < keySpace} and models it exactly, so each op's
// expected result is read from the lane's model when the op is drawn.
// The mix is a quarter each of insert, delete, own-stripe get and
// foreign get (any lane's stripe); every value read must carry its
// key's invariant, so a read of a recycled or poisoned node shows up as
// a wrong value. At quiescence the engine checks the lease ledgers, the
// model union against the structures, the reclamation drain and the
// arena's live count.
//
// A configuration picks two things: how a group of ops gets a tid (its
// tidMode) and the key family (uint64 Map or BytesMap). The first
// divergence comes back as a value, so a phase calls t.Fatal on it and
// TestChurnCatchesFaults can check what a faulty structure produces.
package dstest

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"hyaline/internal/arena"
	"hyaline/internal/session"
	"hyaline/internal/smr"
)

// tidMode is how a group of churn ops gets its tid.
type tidMode int

const (
	// ownTid: lane i is tid i; each op is its own Enter/Leave bracket.
	ownTid tidMode = iota
	// leasePerOp: 12 lanes share 4 tids; each op leases a session.
	leasePerOp
	// leasePerBatch: as leasePerOp on odd lanes; even lanes lease once
	// per batchSize ops and Trim every trimEvery inside the bracket.
	leasePerBatch
	// leaseOnShard: as leasePerOp, on whichever of three partitions
	// (trackers over one arena) shardRoute picks for the op's key.
	leaseOnShard
)

const (
	batchSize = 32
	trimEvery = 16 // two trims per batch: reclamation advances mid-bracket
)

const (
	opInsert = iota
	opDelete
	opGet     // own stripe: presence must match the model
	opForeign // any stripe: only the value invariant applies
)

var opNames = [...]string{"Insert", "Delete", "Get", "foreign Get"}

// keyed runs churn ops on one structure of either key family. Keys are
// the model's uint64 keys; the family maps them to its own.
type keyed interface {
	insert(tid int, k uint64) bool
	delete(tid int, k uint64) bool
	// get reports k's presence and, when the value read breaks k's
	// invariant, describes what was read and what was due. buf is the
	// calling lane's scratch.
	get(tid int, k uint64, buf *[]byte) (ok bool, got, want string)
	Len() int
}

// keyFamily builds a structure of one key family over an arena.
type keyFamily struct {
	blobs bool // bytes keys: the arena has a blob heap, two blobs per node
	build func(a *arena.Arena, tr smr.Tracker) keyed
}

func uint64Keys(f Factory) keyFamily {
	return keyFamily{build: func(a *arena.Arena, tr smr.Tracker) keyed { return mapKeys{f(a, tr)} }}
}

func byteKeys(f BytesFactory) keyFamily {
	return keyFamily{blobs: true, build: func(a *arena.Arena, tr smr.Tracker) keyed { return bytesKeys{f(a, tr)} }}
}

type mapKeys struct{ Map }

func (m mapKeys) insert(tid int, k uint64) bool { return m.Insert(tid, k, checksum(k)) }
func (m mapKeys) delete(tid int, k uint64) bool { return m.Delete(tid, k) }
func (m mapKeys) get(tid int, k uint64, _ *[]byte) (bool, string, string) {
	v, ok := m.Get(tid, k)
	if ok && v != checksum(k) {
		return true, fmt.Sprint(v), fmt.Sprint(checksum(k))
	}
	return ok, "", ""
}

type bytesKeys struct{ BytesMap }

func (m bytesKeys) insert(tid int, k uint64) bool { return m.Insert(tid, bytesKey(k), bytesVal(k)) }
func (m bytesKeys) delete(tid int, k uint64) bool { return m.Delete(tid, bytesKey(k)) }
func (m bytesKeys) get(tid int, k uint64, buf *[]byte) (ok bool, got, want string) {
	*buf, ok = m.Get(tid, bytesKey(k), (*buf)[:0])
	if ok {
		got, want = checkBytesVal(k, *buf)
	}
	return ok, got, want
}

// churnOp is one drawn op with the result the lane's model expects.
type churnOp struct {
	kind   int
	key    uint64
	expect bool
}

// churnPart is one partition: a tracker and the structure over it, and
// the session pool lanes lease its tids from (nil under ownTid).
type churnPart struct {
	tr   smr.Tracker
	m    keyed
	pool *session.Pool
}

// churn is one configuration of the engine.
type churn struct {
	mode     tidMode
	a        *arena.Arena
	parts    []churnPart
	lanes    int
	ops      int // per lane
	keySpace int // keys per lane stripe
	blobs    bool
	reclaims bool // not leaky: the drain must reach the slack
	slack    int64
}

// newChurn sizes a configuration as its phase runs it.
func newChurn(t *testing.T, mode tidMode, fam keyFamily, scheme string, opts Options) *churn {
	c := &churn{mode: mode, lanes: 12, ops: opts.OpsPerThread / 4, keySpace: int(opts.KeySpace),
		blobs: fam.blobs, reclaims: scheme != "leaky", slack: opts.LeakSlack}
	tids, nparts := 4, 1
	switch {
	case mode == ownTid && fam.blobs:
		// Bytes structures are ordered lists: keep the key space small
		// enough that O(n) traversals stay fast under -race.
		c.lanes = min(max(runtime.GOMAXPROCS(0), 4), 8)
		c.keySpace = max(c.keySpace/4, 64)
	case mode == ownTid:
		c.lanes, c.ops = min(max(runtime.GOMAXPROCS(0), 4), 16), opts.OpsPerThread
	case mode == leasePerBatch:
		c.ops = max(opts.OpsPerThread/(4*batchSize), 8) * batchSize
	case mode == leaseOnShard:
		nparts = 3
	}
	if mode == ownTid {
		tids = c.lanes
	}
	if fam.blobs {
		c.a = newBytesArena(opts.ArenaCap)
	} else {
		c.a = arena.New(opts.ArenaCap)
	}
	for range nparts {
		p := churnPart{tr: newTracker(t, scheme, c.a, tids)}
		p.m = fam.build(c.a, p.tr)
		if mode != ownTid {
			p.pool = session.NewPool(p.tr, tids)
		}
		c.parts = append(c.parts, p)
	}
	return c
}

// runChurn runs one configuration and fails t on its first divergence.
func runChurn(t *testing.T, mode tidMode, fam keyFamily, scheme string, opts Options) {
	t.Helper()
	if d := newChurn(t, mode, fam, scheme, opts).run(phaseSeed(t)); d != nil {
		t.Fatal(d)
	}
}

// divergence is the first check the engine saw fail: an op whose result
// the model contradicts (lane ≥ 0), or a quiescent check (lane -1, op
// naming the check).
type divergence struct {
	lane, tid int
	op        string
	key       uint64
	got, want string
}

func (d *divergence) Error() string {
	if d.lane < 0 {
		return fmt.Sprintf("%s = %s, want %s", d.op, d.got, d.want)
	}
	return fmt.Sprintf("lane %d (tid %d): %s(%d) = %s, want %s", d.lane, d.tid, d.op, d.key, d.got, d.want)
}

func quiescent(op string, got, want any) *divergence {
	return &divergence{lane: -1, op: op, got: fmt.Sprint(got), want: fmt.Sprint(want)}
}

func presence(ok bool) string {
	if ok {
		return "present"
	}
	return "absent"
}

func (c *churn) run(seed int64) *divergence {
	models := make([]map[uint64]bool, c.lanes)
	fails := make([]*divergence, c.lanes)
	var wg sync.WaitGroup
	for lane := range c.lanes {
		models[lane] = map[uint64]bool{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fails[lane] = c.lane(lane, laneRNG(seed, lane), models[lane])
		}()
	}
	wg.Wait()
	for _, d := range fails {
		if d != nil {
			return d
		}
	}
	return c.quiesce(models)
}

func (c *churn) lane(lane int, rng *rand.Rand, model map[uint64]bool) *divergence {
	group := make([]churnOp, 1)
	if c.mode == leasePerBatch && lane%2 == 0 {
		group = make([]churnOp, batchSize)
	}
	var buf []byte
	for done := 0; done < c.ops; done += len(group) {
		for i := range group {
			group[i] = c.draw(rng, lane, model)
		}
		if d := c.apply(lane, group, &buf); d != nil {
			return d
		}
	}
	return nil
}

// draw picks the next op of a lane and moves the lane's model past it.
func (c *churn) draw(rng *rand.Rand, lane int, model map[uint64]bool) churnOp {
	kind := rng.Intn(4)
	if kind == opForeign {
		return churnOp{kind: kind, key: uint64(rng.Intn(c.keySpace * c.lanes))}
	}
	key := uint64(rng.Intn(c.keySpace)*c.lanes + lane)
	op := churnOp{kind: kind, key: key, expect: model[key]}
	switch kind {
	case opInsert:
		op.expect = !model[key]
		model[key] = true
	case opDelete:
		model[key] = false
	}
	return op
}

// apply runs one group of ops under one tid and one bracket, on the
// partition of the group's first key.
func (c *churn) apply(lane int, group []churnOp, buf *[]byte) *divergence {
	p := &c.parts[0]
	if len(c.parts) > 1 {
		p = &c.parts[shardRoute(group[0].key, len(c.parts))]
	}
	tid := lane
	var s *session.Session
	if p.pool != nil {
		s = p.pool.Acquire()
		defer p.pool.Release(s)
		tid = s.Tid()
	}
	p.tr.Enter(tid)
	defer p.tr.Leave(tid)
	for i, op := range group {
		if i > 0 && i%trimEvery == 0 {
			s.Trim()
		}
		if d := p.check(op, tid, buf); d != nil {
			d.lane = lane
			return d
		}
	}
	return nil
}

// check runs one op and compares it with the model and the key's value
// invariant.
func (p *churnPart) check(op churnOp, tid int, buf *[]byte) *divergence {
	var got, want string
	switch op.kind {
	case opInsert, opDelete:
		var ok bool
		if op.kind == opInsert {
			ok = p.m.insert(tid, op.key)
		} else {
			ok = p.m.delete(tid, op.key)
		}
		if ok == op.expect {
			return nil
		}
		got, want = fmt.Sprint(ok), fmt.Sprint(op.expect)
	default:
		var ok bool
		if ok, got, want = p.m.get(tid, op.key, buf); got != "" {
			want += " (use-after-free?)"
		} else if op.kind == opForeign || ok == op.expect {
			return nil
		} else {
			got, want = presence(ok), presence(op.expect)
		}
	}
	return &divergence{tid: tid, op: opNames[op.kind], key: op.key, got: got, want: want}
}

// quiesce runs the checks that hold once every lane has stopped.
func (c *churn) quiesce(models []map[uint64]bool) *divergence {
	for i, p := range c.parts {
		if p.pool != nil && p.pool.InUse() != 0 {
			return quiescent(fmt.Sprintf("partition %d: tids leased", i), p.pool.InUse(), 0)
		}
	}
	// Every modelled key reads as its lane's model says, through the
	// lane's own way of getting a tid, and no key is anywhere else.
	want := 0
	var buf []byte
	for lane, model := range models {
		for key, present := range model {
			if d := c.apply(lane, []churnOp{{kind: opGet, key: key, expect: present}}, &buf); d != nil {
				d.op = "post-churn " + d.op
				return d
			}
			if present {
				want++
			}
		}
	}
	got := 0
	for _, p := range c.parts {
		got += p.m.Len()
	}
	if got != want {
		return quiescent("Len", got, want)
	}
	// Reclamation holds per partition (none hides its garbage behind a
	// quieter sibling); the arena they share holds every live node:
	// structure nodes, retired-but-unreclaimed ones and bounded leaks.
	var lower, upper int64
	for i, p := range c.parts {
		fl, _ := p.tr.(smr.Flusher)
		for range 3 {
			if p.pool != nil {
				p.pool.Flush()
			} else if fl != nil {
				for tid := range c.lanes {
					fl.Flush(tid)
				}
			}
		}
		un := p.tr.Stats().Unreclaimed()
		if slack := 4096 + c.slack; c.reclaims && un > slack {
			return quiescent(fmt.Sprintf("partition %d: unreclaimed after drain", i), un, fmt.Sprintf("≤ %d", slack))
		}
		lower += un
		upper += un + int64(structureNodeBound(p.m.Len())) + c.slack
	}
	live := c.a.Live()
	if live < lower || live > upper {
		return quiescent(fmt.Sprintf("arena live (len %d)", got), live, fmt.Sprintf("in [%d, %d]", lower, upper))
	}
	// Two blobs per live node, in the structure or retired-but-pinned.
	if c.blobs {
		if blobs := c.a.BlobStats().Live(); blobs != 2*live {
			return quiescent("live blobs", blobs, fmt.Sprintf("2 × %d live nodes", live))
		}
	}
	return nil
}

// shardRoute mirrors the murmur3 fmix64 router the sharded KV layer
// uses, duplicated here because dstest sits below the root package in
// the import graph, so leaseOnShard churns the same key→shard
// assignment the production path would.
func shardRoute(key uint64, n int) int {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	key *= 0xc4ceb9fe1a85ec53
	key ^= key >> 33
	return int(key % uint64(n))
}

// ConcurrentChurn runs the churn engine with one lane per tid
// (GOMAXPROCS clamped to [4, 16]), OpsPerThread ops each, every op its
// own Enter/Leave bracket. Foreign keys stay below KeySpace × lanes.
func ConcurrentChurn(t *testing.T, f Factory, scheme string, opts Options) {
	runChurn(t, ownTid, uint64Keys(f), scheme, opts)
}

// ConcurrentChurnBytes is ConcurrentChurn for a bytes structure: [4, 8]
// lanes, OpsPerThread/4 ops each over max(KeySpace/4, 64) keys a lane,
// values spanning several blob size classes (bytesVal). At quiescence it
// adds the blob ledger: exactly two live blobs per live node.
func ConcurrentChurnBytes(t *testing.T, f BytesFactory, scheme string, opts Options) {
	runChurn(t, ownTid, byteKeys(f), scheme, opts)
}

// SessionChurn runs the churn engine through the session layer: 12
// lanes lease one of 4 tids per op, so a tid migrates between
// goroutines thousands of times under live load (the paper's
// transparency: a thread is off the hook at Leave). At quiescence the
// pool's lease ledger must be empty.
func SessionChurn(t *testing.T, f Factory, scheme string, opts Options) {
	runChurn(t, leasePerOp, uint64Keys(f), scheme, opts)
}

// BatchChurn is SessionChurn with the KV batch API's bracket on even
// lanes: one lease and one Enter/Leave per 32-op batch, trimmed every 16
// ops (§3.3), while odd lanes lease per op; both run
// max(OpsPerThread/128, 8) × 32 ops. Tids migrate between batched and
// singleton callers, and the long brackets must not starve the drain.
func BatchChurn(t *testing.T, f Factory, scheme string, opts Options) {
	runChurn(t, leasePerBatch, uint64Keys(f), scheme, opts)
}

// ShardedChurn is SessionChurn over three partitions — each its own
// tracker, structure and 4-tid pool, all over one arena — with each op
// leasing on the partition shardRoute picks, as the sharded KV does. A
// node one partition's tracker frees is recycled by the others, the
// same event as reuse across tids of one tracker. Every pool's ledger
// and every tracker's drain is checked on its own, and the summed Len
// against the model union.
func ShardedChurn(t *testing.T, f Factory, scheme string, opts Options) {
	runChurn(t, leaseOnShard, uint64Keys(f), scheme, opts)
}
