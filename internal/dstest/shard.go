package dstest

import (
	"fmt"
	"sync"
	"testing"

	"hyaline/internal/arena"
	"hyaline/internal/session"
	"hyaline/internal/smr"
)

// shardRoute mirrors the murmur3 fmix64 router the sharded KV layer
// uses, duplicated here because dstest sits below the root package in
// the import graph. Keeping the mixer identical means this phase churns
// the same key→shard assignment the production path would.
func shardRoute(key uint64, n int) int {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	key *= 0xc4ceb9fe1a85ec53
	key ^= key >> 33
	return int(key % uint64(n))
}

// churnShard is one fully independent partition: its own arena, its own
// tracker, its own structure, its own session pool. Nothing is shared
// across partitions, which is exactly the property the assertions lean
// on — a node retired on one shard can never be resurrected by another
// shard's reclamation.
type churnShard struct {
	a    *arena.Arena
	tr   smr.Tracker
	m    Map
	pool *session.Pool
}

// ShardedChurn drives several independent shard partitions — each with
// its own arena, tracker, structure and session pool — from one set of
// goroutines that route every key by hash, the in-structure analogue of
// the sharded KV's ApplyInto fan-out. Each goroutine owns a key stripe
// it models exactly while also issuing foreign checksum reads, so an
// operation landing on the wrong shard, or a shard's reclamation
// touching another shard's nodes, shows up as a model divergence or a
// poisoned value. At quiescence every pool's lease ledger, the summed
// Len against the model union, and each shard's unreclaimed count and
// arena live bound must all hold independently.
func ShardedChurn(t *testing.T, f Factory, scheme string, opts Options) {
	const nshards = 3
	maxThreads := 4
	goroutines := 3 * maxThreads
	shards := make([]churnShard, nshards)
	for i := range shards {
		a := arena.New(opts.ArenaCap)
		tr := newTracker(t, scheme, a, maxThreads)
		shards[i] = churnShard{a: a, tr: tr, m: f(a, tr), pool: session.NewPool(tr, maxThreads)}
	}
	// doOn runs one op on key's shard under a leased session, routing
	// exactly like the KV layer: pick the shard first, then lease from
	// that shard's pool.
	doOn := func(key uint64, op func(sh *churnShard, tid int)) {
		sh := &shards[shardRoute(key, nshards)]
		underLease(sh.pool, func(s *session.Session) {
			op(sh, s.Tid())
		})
	}

	seed := phaseSeed(t)
	ops := opts.OpsPerThread / 4
	errc := make(chan string, goroutines)
	models := make([]map[uint64]bool, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := laneRNG(seed, g)
			model := map[uint64]bool{}
			models[g] = model
			for i := 0; i < ops; i++ {
				// Own-stripe keys: key % goroutines == g. The stripe is
				// orthogonal to the shard hash, so one goroutine's keys
				// scatter across all partitions.
				key := uint64(rng.Intn(int(opts.KeySpace)))*uint64(goroutines) + uint64(g)
				fail := ""
				switch rng.Intn(4) {
				case 0:
					doOn(key, func(sh *churnShard, tid int) {
						if got := sh.m.Insert(tid, key, checksum(key)); got == model[key] {
							fail = fmt.Sprintf("g %d (tid %d): Insert(%d)=%v but model says %v", g, tid, key, got, model[key])
							return
						}
						model[key] = true
					})
				case 1:
					doOn(key, func(sh *churnShard, tid int) {
						if got := sh.m.Delete(tid, key); got != model[key] {
							fail = fmt.Sprintf("g %d (tid %d): Delete(%d)=%v but model says %v", g, tid, key, got, model[key])
							return
						}
						model[key] = false
					})
				case 2:
					doOn(key, func(sh *churnShard, tid int) {
						v, ok := sh.m.Get(tid, key)
						if ok != model[key] || (ok && v != checksum(key)) {
							fail = fmt.Sprintf("g %d (tid %d): Get(%d)=(%d,%v) but model says %v", g, tid, key, v, ok, model[key])
						}
					})
				default:
					// Foreign read on any shard: only the checksum invariant
					// applies — a wrong value means a recycled node, possibly
					// freed by a DIFFERENT shard's tracker.
					fk := uint64(rng.Intn(int(opts.KeySpace) * goroutines))
					doOn(fk, func(sh *churnShard, tid int) {
						if v, ok := sh.m.Get(tid, fk); ok && v != checksum(fk) {
							fail = fmt.Sprintf("g %d (tid %d): foreign Get(%d) returned %d, want %d (use-after-free?)", g, tid, fk, v, checksum(fk))
						}
					})
				}
				if fail != "" {
					errc <- fail
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for e := range errc {
		t.Fatal(e)
	}

	// Quiescence: every shard's lease ledger must be clean.
	for i := range shards {
		if leased := shards[i].pool.InUse(); leased != 0 {
			t.Fatalf("shard %d: %d tids still leased after all goroutines exited", i, leased)
		}
	}

	// Every modelled key must be on its routed shard — and the summed
	// Len must match the model union exactly (no key duplicated across
	// shards, none dropped by routing).
	want := 0
	for g, model := range models {
		for key, present := range model {
			var v uint64
			var ok bool
			doOn(key, func(sh *churnShard, tid int) {
				v, ok = sh.m.Get(tid, key)
			})
			if ok != present || (ok && v != checksum(key)) {
				t.Fatalf("g %d: post-churn key %d present=%v want %v", g, key, ok, present)
			}
			if present {
				want++
			}
		}
	}
	got := 0
	for i := range shards {
		got += shards[i].m.Len()
	}
	if got != want {
		t.Fatalf("summed Len = %d, models say %d", got, want)
	}

	// Reclamation accounting holds per shard, not just in aggregate: a
	// partition cannot hide its garbage behind a quieter sibling.
	for i := range shards {
		for pass := 0; pass < 3; pass++ {
			shards[i].pool.Flush()
		}
		st := shards[i].tr.Stats()
		if scheme != "leaky" {
			slack := int64(4096) + opts.LeakSlack
			if un := st.Unreclaimed(); un > slack {
				t.Fatalf("shard %d: %d nodes unreclaimed at quiescence (slack %d)", i, un, slack)
			}
		}
		live := shards[i].a.Live()
		lower := st.Unreclaimed()
		upper := st.Unreclaimed() + int64(structureNodeBound(shards[i].m.Len())) + opts.LeakSlack
		if live < lower || live > upper {
			t.Fatalf("shard %d: arena live=%d outside [%d, %d] (len=%d, stats %+v)",
				i, live, lower, upper, shards[i].m.Len(), st)
		}
	}
}
