package hyaline

import (
	"fmt"

	"hyaline/internal/ds"
)

// KV is a goroutine-transparent concurrent map over uint64 keys and
// values: Insert/Delete/Get/Range and the batch API are callable from
// any goroutine, with no thread registration and no tid plumbing.
// Internally every call leases a tid from its shard's session.Pool for
// exactly the duration of the operation, so any number of goroutines —
// far more than MaxThreads — can share one KV.
//
// The lease fast path is the pool's per-P cache (a sync.Pool): a
// goroutine usually reuses the session its P released a moment ago,
// winning it with one CAS on a line its core already holds and
// allocating nothing. On a miss it scans the shard's sessions for a free
// one, and only when every tid is in flight does it wait.
//
// When several operations are available at once, the batch API —
// Apply, InsertBatch, DeleteBatch, GetBatch — runs them under a single
// lease and a single (chunked) Enter/Leave bracket per shard touched,
// amortizing the per-operation session cost.
//
// A KV is hash-partitioned into shards independent partitions
// (NewShardedKV; NewKV is the one-shard case). A key always lives on
// exactly one shard — a mixed hash of the key mod N — and routing is
// invisible to callers: single-key operations go to the owning shard,
// batches are split per shard, executed (in parallel where another P
// can take a run) and scattered back in caller order, Range merges
// per-shard scans k-way, and the gauges aggregate. Structure-level
// contention and reclamation pressure both scale out with the shard
// count.
//
// KV is the recommended entry point; the explicit-tid Tracker/Map API
// remains available for callers that manage their own worker identity
// (the benchmark harness pins tids to workers for the paper's figures).
type KV struct {
	store[Map, Op, Result]
	r []Ranger // per-shard scan surface; nil when the structure is unordered
}

// ShardedKV is KV: sharding is a constructor argument, not a type.
type ShardedKV = KV

// NewKV builds an unsharded concurrent map: the named structure over
// the named reclamation scheme, with all Arena/Tracker/session wiring
// internal.
func NewKV(structure, scheme string, opts KVOptions) (*KV, error) {
	return NewShardedKV(structure, scheme, 1, opts)
}

// NewShardedKV builds a hash-sharded concurrent map: shards independent
// copies of the named structure over the named scheme, opts carrying
// the total bounds.
func NewShardedKV(structure, scheme string, shards int, opts KVOptions) (*KV, error) {
	kv := &KV{}
	if err := kv.init(structure, scheme, shards, opts, false, ds.Validate, ds.New); err != nil {
		return nil, err
	}
	for i := range kv.shards {
		if r, ok := kv.shards[i].m.(Ranger); ok {
			kv.r = append(kv.r, r)
		}
	}
	return kv, nil
}

// shardIndex routes a key to its shard. The raw key is mixed first
// (murmur3 fmix64) so sequential keyspaces — the common benchmark and
// cache shape — spread uniformly instead of striping by key % N.
func shardIndex(key uint64, n int) int {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	key *= 0xc4ceb9fe1a85ec53
	key ^= key >> 33
	return int(key % uint64(n))
}

func (kv *KV) route(op *Op) int { return shardIndex(op.Key, len(kv.shards)) }

func (kv *KV) shard(key uint64) *shard[Map] {
	if len(kv.shards) == 1 {
		return &kv.shards[0] // unsharded: no key hash on the hot path
	}
	return &kv.shards[shardIndex(key, len(kv.shards))]
}

// Insert adds key→val, failing if the key exists.
func (kv *KV) Insert(key, val uint64) bool {
	sh := kv.shard(key)
	ks := sh.enter()
	defer sh.leave(ks)
	return sh.m.Insert(ks.s.Tid(), key, val)
}

// Delete removes key, failing if it is absent.
func (kv *KV) Delete(key uint64) bool {
	sh := kv.shard(key)
	ks := sh.enter()
	defer sh.leave(ks)
	return sh.m.Delete(ks.s.Tid(), key)
}

// Get returns the value under key.
func (kv *KV) Get(key uint64) (uint64, bool) {
	sh := kv.shard(key)
	ks := sh.enter()
	defer sh.leave(ks)
	return sh.m.Get(ks.s.Tid(), key)
}

// Op is one operation of a batch.
type Op struct {
	Kind OpKind
	Key  uint64
	Val  uint64 // used by OpInsert only
}

// Result is the outcome of one batched operation. For OpGet, Val is the
// value found (zero when absent); for OpInsert and OpDelete, Val is
// zero and OK carries the mutation's success.
type Result struct {
	Val uint64
	OK  bool
}

// Apply runs ops in order and returns one Result per op. On each shard
// touched the batch runs under a single session lease and a single
// (chunked) Enter/Leave bracket: the per-operation overhead of leasing
// a tid and entering the reclamation scheme is paid once per batch
// instead of once per op, so large batches approach the raw
// explicit-tid cost. Ops in one batch execute atomically with respect
// to nothing — other goroutines' operations interleave freely between
// (and inside) batches; a batch is an amortization unit, not a
// transaction.
//
// An empty batch returns nil without leasing. An Op with an unknown
// Kind panics before anything runs.
func (kv *KV) Apply(ops []Op) []Result {
	if len(ops) == 0 {
		return nil
	}
	return kv.ApplyInto(make([]Result, 0, len(ops)), ops)
}

// ApplyInto is Apply appending into dst, for callers that reuse a
// result buffer across batches: with dst capacity >= len(ops) a batch
// touches no Go heap — unsharded, or sharded on a store built with
// GOMAXPROCS 1, where the shard runs execute in turn on the caller.
// A sharded store built on several Ps allocates one closure per run it
// hands to another goroutine and nothing else (the routing scratch,
// WaitGroup included, is pooled). See applySplit for the mechanics.
func (kv *KV) ApplyInto(dst []Result, ops []Op) []Result {
	for i := range ops {
		checkKind(i, ops[i].Kind)
	}
	if len(ops) == 0 {
		return dst
	}
	if len(kv.shards) == 1 {
		return kv.applyShard(&kv.shards[0], dst, ops) // unsharded: nothing to split or scatter
	}
	sc := kv.takeScratch()
	dst = kv.applySplit(kv, sc, dst, ops)
	kv.putScratch(sc)
	return dst
}

func (kv *KV) exec(s int, r *shardRun[Op, Result]) {
	r.res = kv.applyShard(&kv.shards[s], r.res[:0], r.ops)
}

// applyShard runs ops on one shard under one lease and one chunked
// bracket, appending a Result per op to dst.
func (kv *KV) applyShard(sh *shard[Map], dst []Result, ops []Op) []Result {
	ks := sh.enter()
	defer sh.leave(ks)
	tid := ks.s.Tid()
	for i := range ops {
		batchTrim(ks, i)
		op := &ops[i]
		var r Result
		switch op.Kind {
		case OpGet:
			r.Val, r.OK = sh.m.Get(tid, op.Key)
		case OpInsert:
			r.OK = sh.m.Insert(tid, op.Key, op.Val)
		case OpDelete:
			r.OK = sh.m.Delete(tid, op.Key)
		}
		dst = append(dst, r)
	}
	return dst
}

// stage fills sc.ops with one op of the given kind per key.
func stage(sc *scratch[Op, Result], kind OpKind, keys, vals []uint64) {
	for i, k := range keys {
		op := Op{Kind: kind, Key: k}
		if vals != nil {
			op.Val = vals[i]
		}
		sc.ops = append(sc.ops, op)
	}
}

// mutate applies one mutation per key and reports per-key success.
func (kv *KV) mutate(kind OpKind, keys, vals []uint64) []bool {
	if len(keys) == 0 {
		return nil
	}
	sc := kv.takeScratch()
	defer kv.putScratch(sc)
	stage(sc, kind, keys, vals)
	sc.res = kv.ApplyInto(sc.res, sc.ops)
	ok := make([]bool, len(keys))
	for i := range ok {
		ok[i] = sc.res[i].OK
	}
	return ok
}

// InsertBatch adds keys[i]→vals[i] for every i as one batch (see
// Apply). ok[i] reports whether keys[i] was newly inserted. Panics when
// the slices differ in length.
func (kv *KV) InsertBatch(keys, vals []uint64) []bool {
	checkPairs(len(keys), len(vals))
	return kv.mutate(OpInsert, keys, vals)
}

// DeleteBatch removes every key as one batch. ok[i] reports whether
// keys[i] was present.
func (kv *KV) DeleteBatch(keys []uint64) []bool { return kv.mutate(OpDelete, keys, nil) }

// GetBatch looks every key up as one batch, appending one Result per
// key to dst (pass nil to allocate). Reusing dst across calls
// (dst = kv.GetBatch(dst[:0], keys)) keeps the whole read batch off the
// Go heap — the batch analogue of Get's allocation-free hot path.
func (kv *KV) GetBatch(dst []Result, keys []uint64) []Result {
	sc := kv.takeScratch()
	defer kv.putScratch(sc)
	stage(sc, OpGet, keys, nil)
	return kv.ApplyInto(dst, sc.ops)
}

// Range visits every key in [lo, hi] in ascending order, calling
// fn(key, val) until fn returns false or the range is exhausted. It
// errors when the structure is unordered (see SupportsRange); the scan
// guarantees of Ranger apply (sorted, duplicate-free, bounded — not an
// atomic snapshot).
//
// The scan is chunked: every batchChunk visited keys the underlying
// traversal is restarted from the next unvisited key and the session's
// reclamation bracket is re-armed with Trim, the same discipline the
// batch API uses. A long scan — or a slow consumer in fn — therefore
// pins at most one chunk's worth of traversal, instead of stalling
// reclamation for the whole range. (Restarting costs a re-traversal to
// the cursor on list-shaped structures; the chunk size trades that
// against how long retired nodes stay pinned.)
//
// On a sharded KV each shard holds a disjoint slice of the keyspace and
// yields it sorted, so a k-way merge of per-shard chunked scans
// reproduces the unsharded contract exactly — and, at quiescence, the
// unsharded output.
//
// fn must not call back into the KV: the scan holds a session lease
// while fn runs, so a nested operation competes for the remaining
// leases and deadlocks once they are exhausted (with MaxThreads 1,
// immediately). Collect keys and operate after Range returns instead.
func (kv *KV) Range(lo, hi uint64, fn func(key, val uint64) bool) error {
	if kv.r == nil {
		return fmt.Errorf("hyaline: structure %q does not support range scans (ordered structures only)", kv.structure)
	}
	if len(kv.shards) == 1 {
		kv.scan(0, lo, hi, fn) // unsharded: already sorted, no merge buffer
		return nil
	}
	scans := make([]shardScan, len(kv.shards))
	for i := range scans {
		scans[i] = shardScan{hi: hi, next: lo}
	}
	for {
		best := -1
		for i := range scans {
			sc := &scans[i]
			if sc.i >= len(sc.buf) {
				if sc.done {
					continue
				}
				sc.refill(kv, i)
				if sc.i >= len(sc.buf) {
					continue
				}
			}
			if best < 0 || sc.buf[sc.i].k < scans[best].buf[scans[best].i].k {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		e := scans[best].buf[scans[best].i]
		scans[best].i++
		if !fn(e.k, e.v) {
			return nil
		}
	}
}

// scan is the chunked scan of shard i's slice of [lo, hi]. The chunk
// state lives in the leased session (see kvSession), so the scan itself
// allocates nothing.
func (kv *KV) scan(i int, lo, hi uint64, fn func(key, val uint64) bool) {
	sh := &kv.shards[i]
	ks := sh.enter()
	ks.fn = fn
	defer sh.leaveScan(ks)
	cursor := lo
	for {
		ks.visited, ks.stopped, ks.last = 0, false, cursor
		kv.r[i].Range(ks.s.Tid(), cursor, hi, ks.visit)
		// Done unless the chunk filled with range left to cover. The
		// last == hi check also guards cursor overflow at hi = 2^64-1.
		if ks.stopped || ks.visited < batchChunk || ks.last == hi {
			return
		}
		cursor = ks.last + 1
		// Between chunks no node is referenced, so the bracket can be
		// re-armed: retired nodes accumulated behind this scan become
		// reclaimable before the next chunk starts.
		ks.s.Trim()
	}
}

// kvPair is one merged-scan entry buffered between a shard's chunked
// pull and the caller's fn.
type kvPair struct{ k, v uint64 }

// shardScan is a pull-based cursor over one shard's slice of [lo, hi]:
// it draws up to batchChunk entries per refill via the shard's own
// scan (so each pull is one lease + one bracket, and the shard's
// reclamation is re-armed between pulls).
type shardScan struct {
	hi   uint64
	next uint64
	buf  []kvPair
	i    int
	done bool
}

// refill loads the next chunk from shard s. Call only when the buffer
// is drained and the scan is not done.
func (sc *shardScan) refill(kv *KV, s int) {
	sc.buf = sc.buf[:0]
	sc.i = 0
	last := sc.next
	kv.scan(s, sc.next, sc.hi, func(k, v uint64) bool {
		sc.buf = append(sc.buf, kvPair{k, v})
		last = k
		return len(sc.buf) < batchChunk
	})
	// A short chunk means the shard is exhausted; last == hi also
	// guards cursor overflow at hi = 2^64-1 (mirrors scan).
	if len(sc.buf) < batchChunk || last == sc.hi {
		sc.done = true
	} else {
		sc.next = last + 1
	}
}
