package hyaline

import (
	"hyaline/internal/arena"
	"hyaline/internal/ds"
)

// KVBytes is the []byte key family of the store: a goroutine-transparent
// concurrent map from byte-string keys to byte-string values, over the
// same engine, shards and reclamation schemes as KV. Payloads live in
// the arena's blob slabs and share the nodes' lifecycle, so every
// scheme's safety argument covers them unchanged (see internal/arena's
// slab docs).
//
// Semantics mirror KV: Insert is insert-only (no in-place update),
// values are immutable from publish to reclamation, and Get returns a
// copy, never a slice aliasing reclaimable memory. Session leasing,
// batching, sharding and the chunked-Trim bracket discipline are the
// engine's, identical to KV's.
type KVBytes struct {
	store[ds.BytesMap, BytesOp, BytesResult]
}

// ShardedKVBytes is KVBytes: sharding is a constructor argument, not a
// type.
type ShardedKVBytes = KVBytes

// MaxValueLen is the largest key or value KVBytes accepts, matching
// both the blob slabs' largest size class and the wire protocol's
// frame-length field.
const MaxValueLen = arena.MaxBlob

// NewKVBytes builds an unsharded concurrent bytes map: the named bytes
// structure (see BytesStructures) over the named reclamation scheme.
// Keys and values up to MaxValueLen bytes each.
func NewKVBytes(structure, scheme string, opts KVOptions) (*KVBytes, error) {
	return NewShardedKVBytes(structure, scheme, 1, opts)
}

// NewShardedKVBytes builds a hash-sharded concurrent bytes map; opts
// carries the total bounds (BlobClassBudget is divided across shards
// too).
func NewShardedKVBytes(structure, scheme string, shards int, opts KVOptions) (*KVBytes, error) {
	kv := &KVBytes{}
	if err := kv.init(structure, scheme, shards, opts, true, ds.ValidateBytes, ds.NewBytes); err != nil {
		return nil, err
	}
	return kv, nil
}

// shardIndexBytes routes a byte-string key to its shard (FNV-1a 64,
// inlined to stay allocation-free).
func shardIndexBytes(key []byte, n int) int {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

func (kv *KVBytes) route(op *BytesOp) int { return shardIndexBytes(op.Key, len(kv.shards)) }

func (kv *KVBytes) shard(key []byte) *shard[ds.BytesMap] {
	if len(kv.shards) == 1 {
		return &kv.shards[0] // unsharded: no key hash on the hot path
	}
	return &kv.shards[shardIndexBytes(key, len(kv.shards))]
}

// Insert adds key→val, failing if the key exists. Both slices are
// copied in; the caller keeps ownership of its buffers.
func (kv *KVBytes) Insert(key, val []byte) bool {
	sh := kv.shard(key)
	ss := sh.enter()
	defer sh.leave(ss)
	return sh.m.Insert(ss.Tid(), key, val)
}

// Delete removes key, failing if it is absent.
func (kv *KVBytes) Delete(key []byte) bool {
	sh := kv.shard(key)
	ss := sh.enter()
	defer sh.leave(ss)
	return sh.m.Delete(ss.Tid(), key)
}

// Get returns a copy of the value under key.
func (kv *KVBytes) Get(key []byte) ([]byte, bool) { return kv.GetAppend(nil, key) }

// GetAppend appends the value under key to dst and returns it, leaving
// dst unchanged on a miss. Reusing dst across calls keeps the read path
// free of per-call heap allocation (the copy itself is unavoidable: the
// blob may be reclaimed the moment the bracket closes).
func (kv *KVBytes) GetAppend(dst []byte, key []byte) ([]byte, bool) {
	sh := kv.shard(key)
	ss := sh.enter()
	defer sh.leave(ss)
	return sh.m.Get(ss.Tid(), key, dst)
}

// BlobStats returns the blob slab counters: live blobs are the byte
// payloads currently owned by live (or retired-but-unreclaimed) nodes.
func (kv *KVBytes) BlobStats() arena.BlobStats { return kv.blobStats() }

// BytesOp is one operation of a bytes batch. Kind reuses the uint64
// batch's OpKind values. Key and Val are read during Apply and copied
// into arena blobs as needed — the batch never retains the caller's
// slices, so aliasing them into a network read buffer is safe.
type BytesOp struct {
	Kind OpKind
	Key  []byte
	Val  []byte // used by OpInsert only
}

// BytesResult is the outcome of one batched bytes operation. For OpGet
// hits, Val is the value (a sub-slice of the batch's value buffer — see
// ApplyBytesInto); for mutations Val is nil and OK carries success.
type BytesResult struct {
	Val []byte
	OK  bool

	// vo/ve stage a Get hit's (start, end+1) offsets into the batch's
	// value buffer while a batch runs: the buffer may reallocate
	// mid-batch, so Val can only be sliced once the batch is done (see
	// sliceVals). Always zero outside that window.
	vo, ve int
}

// sliceVals materializes the staged value offsets of res into
// capacity-pinned sub-slices of buf, which must have stopped growing.
func sliceVals(res []BytesResult, buf []byte) {
	for i := range res {
		if end := res[i].ve; end > 0 {
			res[i].Val = buf[res[i].vo : end-1 : end-1]
			res[i].vo, res[i].ve = 0, 0
		}
	}
}

// ApplyBytes runs ops in order and returns one BytesResult per op, with
// Apply's batching semantics: an amortization unit, not a transaction.
// Get results are backed by one freshly allocated buffer per batch.
func (kv *KVBytes) ApplyBytes(ops []BytesOp) []BytesResult {
	if len(ops) == 0 {
		return nil
	}
	res, _ := kv.ApplyBytesInto(make([]BytesResult, 0, len(ops)), nil, ops)
	return res
}

// ApplyBytesInto is ApplyBytes appending results into dst and value
// bytes into buf, for callers that reuse both across batches (the
// network server feeds its per-connection buffers here). It returns the
// extended slices; every Get hit's Val aliases the returned buf, in
// batch order, and nothing aliases a shard's internal scratch.
func (kv *KVBytes) ApplyBytesInto(dst []BytesResult, buf []byte, ops []BytesOp) ([]BytesResult, []byte) {
	for i := range ops {
		checkKind(i, ops[i].Kind)
	}
	if len(ops) == 0 {
		return dst, buf
	}
	base := len(dst)
	if len(kv.shards) == 1 {
		dst, buf = kv.applyShard(&kv.shards[0], dst, buf, ops) // unsharded: nothing to split or scatter
	} else {
		sc := kv.takeScratch()
		dst = kv.applySplit(kv, sc, dst, ops)
		// The scattered hits still alias the shard runs' value buffers:
		// copy each into the caller's buf, staged as offsets again.
		for i := range ops {
			if r := &dst[base+i]; ops[i].Kind == OpGet && r.OK {
				start := len(buf)
				buf = append(buf, r.Val...)
				r.vo, r.ve = start, len(buf)+1
			}
		}
		kv.putScratch(sc)
	}
	sliceVals(dst[base:], buf)
	return dst, buf
}

func (kv *KVBytes) exec(s int, r *shardRun[BytesOp, BytesResult]) {
	r.res, r.vbuf = kv.applyShard(&kv.shards[s], r.res[:0], r.vbuf[:0], r.ops)
	sliceVals(r.res, r.vbuf)
}

// applyShard runs ops on one shard under one lease and one chunked
// bracket, appending a BytesResult per op to dst and hit values to buf.
// Values are staged as offsets: buf may reallocate while the batch
// runs, so slicing eagerly would leave early results pointing into an
// abandoned backing array.
func (kv *KVBytes) applyShard(sh *shard[ds.BytesMap], dst []BytesResult, buf []byte, ops []BytesOp) ([]BytesResult, []byte) {
	ss := sh.enter()
	defer sh.leave(ss)
	tid := ss.Tid()
	for i := range ops {
		batchTrim(ss, i)
		op := &ops[i]
		var r BytesResult
		switch op.Kind {
		case OpGet:
			start := len(buf)
			if buf, r.OK = sh.m.Get(tid, op.Key, buf); r.OK {
				r.vo, r.ve = start, len(buf)+1
			}
		case OpInsert:
			r.OK = sh.m.Insert(tid, op.Key, op.Val)
		case OpDelete:
			r.OK = sh.m.Delete(tid, op.Key)
		}
		dst = append(dst, r)
	}
	return dst, buf
}

// stageBytes fills sc.ops with one op of the given kind per key.
func stageBytes(sc *scratch[BytesOp, BytesResult], kind OpKind, keys, vals [][]byte) {
	for i, k := range keys {
		op := BytesOp{Kind: kind, Key: k}
		if vals != nil {
			op.Val = vals[i]
		}
		sc.ops = append(sc.ops, op)
	}
}

// mutate applies one mutation per key and reports per-key success.
func (kv *KVBytes) mutate(kind OpKind, keys, vals [][]byte) []bool {
	if len(keys) == 0 {
		return nil
	}
	sc := kv.takeScratch()
	defer kv.putScratch(sc)
	stageBytes(sc, kind, keys, vals)
	sc.res, _ = kv.ApplyBytesInto(sc.res, nil, sc.ops)
	ok := make([]bool, len(keys))
	for i := range ok {
		ok[i] = sc.res[i].OK
	}
	return ok
}

// InsertBatch adds keys[i]→vals[i] for every i as one batch. ok[i]
// reports whether keys[i] was newly inserted. Panics when the slices
// differ in length.
func (kv *KVBytes) InsertBatch(keys, vals [][]byte) []bool {
	checkPairs(len(keys), len(vals))
	return kv.mutate(OpInsert, keys, vals)
}

// DeleteBatch removes every key as one batch. ok[i] reports whether
// keys[i] was present.
func (kv *KVBytes) DeleteBatch(keys [][]byte) []bool { return kv.mutate(OpDelete, keys, nil) }

// GetBatch looks every key up as one batch, appending one BytesResult
// per key to dst and the value bytes to buf (pass nil for either to
// allocate). Hit values alias the returned buf, as in ApplyBytesInto.
func (kv *KVBytes) GetBatch(dst []BytesResult, buf []byte, keys [][]byte) ([]BytesResult, []byte) {
	sc := kv.takeScratch()
	defer kv.putScratch(sc)
	stageBytes(sc, OpGet, keys, nil)
	return kv.ApplyBytesInto(dst, buf, sc.ops)
}
