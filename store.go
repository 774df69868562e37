package hyaline

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"hyaline/internal/session"
	"hyaline/internal/trackers"
)

// KVOptions configures a store (NewKV, NewKVBytes and their sharded
// forms). The zero value picks defaults suitable for a process-wide
// shared map. The bounds are *totals* for the whole store, however
// many shards it has.
type KVOptions struct {
	// MaxThreads bounds how many operations can be *in flight*
	// concurrently — not how many goroutines may call the KV. Thread
	// ids are leased to goroutines per operation; callers beyond
	// MaxThreads briefly wait for a lease. Leases are per shard, so a
	// sharded store divides MaxThreads across its shards, rounding up
	// so every shard can run at least one operation. Default
	// 2×GOMAXPROCS.
	MaxThreads int
	// ArenaCap is the capacity of the store's one node pool, which
	// every shard allocates from: however the keys fall across shards,
	// the store holds ArenaCap nodes. The pool is mapped outside the Go
	// heap, so construction is O(1) in capacity and the pool is virtual
	// until touched. Default 1<<20.
	ArenaCap int
	// BlobClassBudget is the byte budget per blob size class of the
	// store's one blob heap, shared by every shard like the node pool
	// and used only by the bytes family (see arena.EnableBlobs).
	// Default 1<<24 per class — mapped like the node pool: O(1) to
	// build, virtual until touched.
	BlobClassBudget int
	// Tracker carries per-scheme tuning (slots, batch sizes, scan
	// thresholds). Its MaxThreads field is overridden by MaxThreads
	// above.
	Tracker Options
}

// Snapshot is a point-in-time summary of a store — the fields a serving
// or monitoring layer reports. The network server's STATS frame encodes
// exactly this plus its own connection gauges.
type Snapshot struct {
	Structure  string
	Scheme     string
	MaxThreads int
	Shards     int   // independent structure+tracker partitions (1 = unsharded)
	Len        int   // entries (approximate under churn)
	Live       int64 // arena nodes currently allocated
	Stats      Stats // cumulative reclamation counters
}

// OpKind selects what one batched Op does. The zero value is OpGet, so
// a zero Op is a harmless read of key 0.
type OpKind uint8

const (
	// OpGet looks the key up; Result carries (Val, OK).
	OpGet OpKind = iota
	// OpInsert adds Key→Val; Result.OK reports whether the key was new.
	OpInsert
	// OpDelete removes Key; Result.OK reports whether it was present.
	OpDelete
)

// String names the kind for diagnostics.
func (k OpKind) String() string {
	switch k {
	case OpGet:
		return "get"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// checkKind rejects an unknown OpKind: a programming error, and
// silently skipping the op would desynchronize ops and results. Both
// families call it for the whole batch before any lease is taken.
func checkKind(i int, k OpKind) {
	if k > OpDelete {
		panic(fmt.Sprintf("hyaline: Apply op %d has unknown kind %s", i, k))
	}
}

// checkPairs rejects an InsertBatch whose slices differ in length.
func checkPairs(keys, vals int) {
	if keys != vals {
		panic(fmt.Sprintf("hyaline: InsertBatch with %d keys but %d vals", keys, vals))
	}
}

// batchChunk is how many batched operations run under one Enter bracket
// before the session is trimmed (Hyaline's §3.3 leave-then-enter, or a
// real Leave+Enter on schemes without Trim). Chunking bounds how long a
// big batch pins retired nodes: reclamation progresses every chunk
// instead of stalling for the whole batch.
const batchChunk = session.BatchChunk

// batchTrim re-arms the bracket between chunks of one batch.
func batchTrim(ss *session.Session, i int) {
	if i > 0 && i%batchChunk == 0 {
		ss.Trim()
	}
}

// shard is one partition of a store: its own data structure, tracker
// and session pool, over the store's one arena. Shards share the
// allocator and no reclamation state — no retire list, era clock or
// lease word — so every scheme's safety argument applies per shard
// unchanged and there is no cross-shard reclamation protocol to reason
// about. The arena is only the allocator under the trackers, the role
// malloc plays in the paper: a slot that shard A's tracker frees and
// shard B's structure reuses is the same event as reuse across two
// tids of one tracker, which every scheme already allows for.
type shard[M any] struct {
	tr   Tracker
	m    M
	pool *session.Pool // the shard's only lease allocator; see the KV doc
}

// enter leases a session for one operation (or one batch) and opens its
// reclamation bracket; leave closes the bracket and returns the lease.
// Every store operation is `ss := sh.enter(); defer sh.leave(ss)`, with
// batchTrim re-arming the bracket between chunks of a long one. The
// store keeps no per-tid state of its own: the lease is the whole
// record of an operation in flight.
func (sh *shard[M]) enter() *session.Session {
	ss := sh.pool.Acquire()
	ss.Enter()
	return ss
}

func (sh *shard[M]) leave(ss *session.Session) {
	ss.Leave()
	sh.pool.Release(ss)
}

// store is the one engine behind both key families: a slice of shards
// (len 1 is the unsharded store) plus everything that does not depend
// on the key type — construction and option defaulting, the aggregates,
// and the split → exec → scatter of a routed batch. KV and
// KVBytes embed it and add only the typed operations.
type store[M interface{ Len() int }, O, R any] struct {
	structure string
	a         *Arena // the one node pool (and blob heap) every shard allocates from
	shards    []shard[M]
	scratches sync.Pool // *scratch[O, R]

	// oneP records that the store was built with GOMAXPROCS 1: no other
	// P exists to take a shard run, so applySplit runs them in turn on
	// the caller. Read once in init — runtime.GOMAXPROCS(0) takes the
	// scheduler lock, which is not a per-batch cost — and a later change
	// of GOMAXPROCS only makes the choice stale, never wrong.
	oneP bool
}

// init builds shards copies of the named structure over the named
// scheme, all on one arena sized by the store totals. validate and
// build are the family's ds registry hooks; blobs enables the arena
// blob heap the bytes structures need.
func (st *store[M, O, R]) init(structure, scheme string, shards int, opts KVOptions, blobs bool,
	validate func(structure, scheme string) error,
	build func(structure string, a *Arena, tr Tracker, maxThreads int) (M, error)) error {
	if shards <= 0 {
		return fmt.Errorf("hyaline: shard count must be positive, got %d", shards)
	}
	// Validate the whole combination before committing resources: a
	// rejected structure/scheme pair must not leave an arena (and its
	// blob heap) mapped.
	if err := validate(structure, scheme); err != nil {
		return err
	}
	if !trackers.Known(scheme) {
		return fmt.Errorf("hyaline: unknown scheme %q (known: %v)", scheme, trackers.Names())
	}
	orDefault := func(v, def int) int {
		if v <= 0 {
			return def
		}
		return v
	}
	procs := runtime.GOMAXPROCS(0)
	st.oneP = procs == 1
	maxThreads := (orDefault(opts.MaxThreads, 2*procs) + shards - 1) / shards
	tcfg := opts.Tracker
	tcfg.MaxThreads = maxThreads
	st.structure = structure
	st.a = NewArena(orDefault(opts.ArenaCap, 1<<20))
	if blobs {
		st.a.EnableBlobs(orDefault(opts.BlobClassBudget, 1<<24))
	}
	st.shards = make([]shard[M], shards)
	for i := range st.shards {
		sh := &st.shards[i]
		var err error
		if sh.tr, err = trackers.New(scheme, st.a, tcfg); err != nil {
			return err
		}
		if sh.m, err = build(structure, st.a, sh.tr, maxThreads); err != nil {
			return err
		}
		sh.pool = session.NewPool(sh.tr, maxThreads)
	}
	return nil
}

// Len counts entries. Exact at quiescence, approximate under churn.
func (st *store[M, O, R]) Len() int {
	n := 0
	for i := range st.shards {
		n += st.shards[i].m.Len()
	}
	return n
}

// Stats returns the reclamation counters accumulated since creation,
// summed across shards.
func (st *store[M, O, R]) Stats() Stats {
	var t Stats
	for i := range st.shards {
		s := st.shards[i].tr.Stats()
		t.Allocated += s.Allocated
		t.Retired += s.Retired
		t.Freed += s.Freed
		t.Scans += s.Scans
	}
	return t
}

// ShardStats returns each shard's reclamation counters, index-aligned
// with the hash shards (one element for an unsharded store).
func (st *store[M, O, R]) ShardStats() []Stats {
	out := make([]Stats, len(st.shards))
	for i := range st.shards {
		out[i] = st.shards[i].tr.Stats()
	}
	return out
}

// Live returns the number of arena nodes currently allocated: map
// entries (plus structure-internal nodes) and retired-but-unreclaimed
// nodes.
func (st *store[M, O, R]) Live() int64 { return st.a.Live() }

// Flush pushes pending reclamation to completion, best-effort. It
// briefly leases every session of every shard (waiting out in-flight
// operations; session.Pool.Flush), so it is expensive — meant for final
// accounting or idle housekeeping, not the hot path.
func (st *store[M, O, R]) Flush() {
	for i := range st.shards {
		st.shards[i].pool.Flush()
	}
}

// InFlight returns the number of sessions held by operations currently
// executing. Zero at quiescence — the network server's graceful shutdown
// asserts on it to prove no batch bracket outlived the drain.
func (st *store[M, O, R]) InFlight() int {
	n := 0
	for i := range st.shards {
		n += st.shards[i].pool.InUse()
	}
	return n
}

// MaxThreads returns the concurrent-operation bound (the leased-tid
// count, not a goroutine limit): the sum of the per-shard bounds, ≥ the
// MaxThreads requested at construction.
func (st *store[M, O, R]) MaxThreads() int {
	return len(st.shards) * st.shards[0].pool.MaxThreads()
}

// Scheme returns the reclamation scheme name.
func (st *store[M, O, R]) Scheme() string { return st.shards[0].tr.Name() }

// Structure returns the data structure name.
func (st *store[M, O, R]) Structure() string { return st.structure }

// Shards returns the number of partitions (1 = unsharded).
func (st *store[M, O, R]) Shards() int { return len(st.shards) }

// Snapshot collects the store's current summary. Each field is read
// atomically but the struct as a whole is not an atomic cut — under
// churn the gauges may be a few operations apart, which is what a
// monitoring endpoint can honestly offer.
func (st *store[M, O, R]) Snapshot() Snapshot {
	return Snapshot{
		Structure:  st.structure,
		Scheme:     st.Scheme(),
		MaxThreads: st.MaxThreads(),
		Shards:     len(st.shards),
		Len:        st.Len(),
		Live:       st.Live(),
		Stats:      st.Stats(),
	}
}

// shardRun is one shard's slice of a routed batch: the ops bound for
// that shard, each op's position in the caller's batch, and the
// shard-local results awaiting scatter.
type shardRun[O, R any] struct {
	ops  []O
	idx  []int
	res  []R
	vbuf []byte // bytes family: shard-local value buffer, so concurrent runs never share one
}

// scratch is the pooled working memory of the batch paths: one run per
// shard plus the list of shards that received work, the WaitGroup of
// the runs handed to other goroutines (here so that it does not escape
// to the heap once per batch), and the staged ops/results of the
// keys-only helpers (InsertBatch/DeleteBatch/GetBatch), which is what
// keeps GetBatch off the Go heap.
type scratch[O, R any] struct {
	runs   []shardRun[O, R]
	active []int
	wg     sync.WaitGroup
	ops    []O
	res    []R
}

func (st *store[M, O, R]) takeScratch() *scratch[O, R] {
	if sc, ok := st.scratches.Get().(*scratch[O, R]); ok {
		return sc
	}
	n := len(st.shards)
	return &scratch[O, R]{runs: make([]shardRun[O, R], n), active: make([]int, 0, n)}
}

// putScratch clears before truncating, so pooled scratch never retains
// caller key/value buffers (they may alias a network read buffer).
func (st *store[M, O, R]) putScratch(sc *scratch[O, R]) {
	for _, s := range sc.active {
		r := &sc.runs[s]
		clear(r.ops)
		clear(r.res)
		r.ops, r.idx, r.res = r.ops[:0], r.idx[:0], r.res[:0]
	}
	clear(sc.ops)
	clear(sc.res)
	sc.active, sc.ops, sc.res = sc.active[:0], sc.ops[:0], sc.res[:0]
	st.scratches.Put(sc)
}

// family is what the routed batch path needs from a typed facade: the
// key hash, and the per-shard executor (one lease + one chunked
// Enter/Leave bracket on shard s, filling r.res).
type family[O, R any] interface {
	route(op *O) int
	exec(s int, r *shardRun[O, R])
}

// applySplit is the sharded batch: ops are split into per-shard runs,
// the runs execute, and results are scattered back so dst[i] answers
// ops[i], exactly as if the batch had run unsharded. Runs go parallel
// only when another P can take one: a store built with GOMAXPROCS 1
// (oneP) runs the active shards in turn on the calling goroutine —
// spawning there buys a goroutine switch per run and no overlap —
// and otherwise the last run stays on the caller and each other one
// gets a goroutine, so a batch confined to one shard pays no spawn
// either way. Ops for the same key land on the same shard in batch
// order, so per-key ordering is preserved; no atomicity is promised
// across distinct keys. The caller owns sc (results may alias its run
// buffers until it is put back).
func (st *store[M, O, R]) applySplit(f family[O, R], sc *scratch[O, R], dst []R, ops []O) []R {
	for i := range ops {
		s := f.route(&ops[i])
		r := &sc.runs[s]
		if len(r.ops) == 0 {
			sc.active = append(sc.active, s)
		}
		r.ops = append(r.ops, ops[i])
		r.idx = append(r.idx, i)
	}
	inline := sc.active
	if !st.oneP {
		last := len(sc.active) - 1
		inline = sc.active[last:]
		for _, s := range sc.active[:last] {
			sc.wg.Add(1)
			go func() {
				defer sc.wg.Done()
				f.exec(s, &sc.runs[s])
			}()
		}
	}
	for _, s := range inline {
		f.exec(s, &sc.runs[s])
	}
	sc.wg.Wait()
	base := len(dst)
	dst = slices.Grow(dst, len(ops))[:base+len(ops)]
	for _, s := range sc.active {
		r := &sc.runs[s]
		for j, pos := range r.idx {
			dst[base+pos] = r.res[j]
		}
	}
	return dst
}
