// Package dstest provides the cross-scheme conformance suite for the
// benchmark data structures. Each structure plugs in through a Factory
// and is exercised under every reclamation scheme it supports: against a
// sequential reference model, under concurrent churn with use-after-free
// detection (value-invariant violations would expose recycled nodes),
// through the Flush/Trim sub-interfaces with a quiescent drain check,
// and — for structures implementing Ranger — under concurrent range
// scans that must stay sorted, duplicate-free and bounded while inserts
// and deletes churn around them.
package dstest

import (
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyaline/internal/arena"
	"hyaline/internal/session"
	"hyaline/internal/smr"
	"hyaline/internal/trackers"
)

// flagSeed is the reproduction escape hatch: by default every phase
// draws a fresh time-derived base seed (and logs it), so repeated CI
// runs explore different schedules; `-dstest.seed=N` pins the whole
// suite to one seed to replay a logged failure.
var flagSeed = flag.Int64("dstest.seed", 0,
	"base PRNG seed for the dstest conformance phases (0 = derive from time; every phase logs the seed it used)")

// phaseSeed picks the base seed for one phase and logs it, so a failing
// run is reproducible with -dstest.seed even though seeds vary run to
// run by default.
func phaseSeed(t *testing.T) int64 {
	t.Helper()
	seed := *flagSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("dstest: base seed %d (replay with -dstest.seed=%d)", seed, seed)
	return seed
}

// laneSeed derives an independent per-worker stream from a phase's base
// seed (splitmix64), so worker g's sequence depends only on (seed, g),
// never on scheduling.
func laneSeed(seed int64, lane int) int64 {
	z := uint64(seed) + (uint64(lane)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// laneRNG is the per-worker PRNG every concurrent phase uses.
func laneRNG(seed int64, lane int) *rand.Rand {
	return rand.New(rand.NewSource(laneSeed(seed, lane)))
}

// Map is the common shape of all four benchmark structures.
type Map interface {
	Insert(tid int, key, val uint64) bool
	Delete(tid int, key uint64) bool
	Get(tid int, key uint64) (uint64, bool)
	Len() int
}

// Ranger is the optional range-scan extension (mirrors ds.Ranger).
// Structures whose Map does not implement it skip the RangeScan phase.
type Ranger interface {
	Map
	Range(tid int, lo, hi uint64, fn func(key, val uint64) bool)
}

// Factory builds a fresh structure over the given arena and tracker.
type Factory func(a *arena.Arena, tr smr.Tracker) Map

// Options tunes the suite.
type Options struct {
	// Schemes lists tracker names to test (default: all registered).
	Schemes []string
	// KeySpace is the key range for the concurrent tests (default 512,
	// small enough to force real contention).
	KeySpace uint64
	// OpsPerThread bounds concurrent work (default 20000; -short halves).
	OpsPerThread int
	// LeakSlack tolerates structures that may leak a bounded number of
	// nodes under contention (the Natarajan & Mittal cleanup retires the
	// parent and leaf; longer tag chains leak, as in the original
	// benchmark framework).
	LeakSlack int64
	// ArenaCap overrides the arena capacity (default 1<<21).
	ArenaCap int
}

func (o *Options) fill() {
	if len(o.Schemes) == 0 {
		o.Schemes = trackers.Names()
	}
	if o.KeySpace == 0 {
		o.KeySpace = 512
	}
	if o.OpsPerThread == 0 {
		o.OpsPerThread = 20000
	}
	if testing.Short() {
		o.OpsPerThread /= 2
	}
	if o.ArenaCap == 0 {
		o.ArenaCap = 1 << 21
	}
}

// checksum is the global value invariant: every insert stores
// checksum(key), so any Get observing something else has read a
// recycled or poisoned node.
func checksum(key uint64) uint64 { return key*31 + 7 }

// RunAll runs the whole suite for every scheme.
func RunAll(t *testing.T, f Factory, opts Options) {
	opts.fill()
	for _, scheme := range opts.Schemes {
		t.Run(scheme, func(t *testing.T) {
			t.Run("Sequential", func(t *testing.T) { Sequential(t, f, scheme) })
			t.Run("ReferenceModel", func(t *testing.T) { ReferenceModel(t, f, scheme) })
			t.Run("ConcurrentChurn", func(t *testing.T) { ConcurrentChurn(t, f, scheme, opts) })
			t.Run("FlushTrim", func(t *testing.T) { FlushTrim(t, f, scheme, opts) })
			t.Run("RangeScan", func(t *testing.T) { RangeScan(t, f, scheme, opts) })
			t.Run("ScanPinning", func(t *testing.T) { ScanPinning(t, f, scheme, opts) })
			t.Run("SessionChurn", func(t *testing.T) { SessionChurn(t, f, scheme, opts) })
			t.Run("BatchChurn", func(t *testing.T) { BatchChurn(t, f, scheme, opts) })
			t.Run("ShardedChurn", func(t *testing.T) { ShardedChurn(t, f, scheme, opts) })
		})
	}
}

func newTracker(t *testing.T, scheme string, a *arena.Arena, maxThreads int) smr.Tracker {
	t.Helper()
	tr, err := trackers.New(scheme, a, trackers.Config{
		MaxThreads: maxThreads,
		Slots:      4,
		MinBatch:   16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func enter(tr smr.Tracker, tid int) { tr.Enter(tid) }
func leave(tr smr.Tracker, tid int) { tr.Leave(tid) }

// Sequential checks basic single-threaded semantics.
func Sequential(t *testing.T, f Factory, scheme string) {
	a := arena.New(1 << 16)
	tr := newTracker(t, scheme, a, 2)
	m := f(a, tr)

	op := func(fn func() bool) bool {
		enter(tr, 0)
		defer leave(tr, 0)
		return fn()
	}

	if op(func() bool { _, ok := m.Get(0, 10); return ok }) {
		t.Fatal("Get on empty structure succeeded")
	}
	if !op(func() bool { return m.Insert(0, 10, checksum(10)) }) {
		t.Fatal("first Insert failed")
	}
	if op(func() bool { return m.Insert(0, 10, 999) }) {
		t.Fatal("duplicate Insert succeeded")
	}
	if !op(func() bool {
		v, ok := m.Get(0, 10)
		return ok && v == checksum(10)
	}) {
		t.Fatal("Get after Insert failed or returned wrong value")
	}
	if op(func() bool { return m.Delete(0, 11) }) {
		t.Fatal("Delete of absent key succeeded")
	}
	if !op(func() bool { return m.Delete(0, 10) }) {
		t.Fatal("Delete of present key failed")
	}
	if op(func() bool { _, ok := m.Get(0, 10); return ok }) {
		t.Fatal("Get after Delete succeeded")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after emptying", m.Len())
	}

	// Reinsertion after delete must work (recycling path).
	for i := 0; i < 100; i++ {
		k := uint64(i % 10)
		op(func() bool { return m.Insert(0, k, checksum(k)) })
		op(func() bool { return m.Delete(0, k) })
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after churn", m.Len())
	}
}

// ReferenceModel replays a deterministic random op sequence against
// map[uint64]uint64 and demands identical results.
func ReferenceModel(t *testing.T, f Factory, scheme string) {
	a := arena.New(1 << 16)
	tr := newTracker(t, scheme, a, 2)
	m := f(a, tr)
	ref := map[uint64]uint64{}
	rng := laneRNG(phaseSeed(t), 0)

	const ops = 20000
	for i := 0; i < ops; i++ {
		key := uint64(rng.Intn(200))
		enter(tr, 0)
		switch rng.Intn(3) {
		case 0:
			got := m.Insert(0, key, checksum(key))
			_, exists := ref[key]
			if got == exists {
				t.Fatalf("op %d: Insert(%d) = %v, ref exists=%v", i, key, got, exists)
			}
			if got {
				ref[key] = checksum(key)
			}
		case 1:
			got := m.Delete(0, key)
			_, exists := ref[key]
			if got != exists {
				t.Fatalf("op %d: Delete(%d) = %v, ref exists=%v", i, key, got, exists)
			}
			delete(ref, key)
		default:
			v, ok := m.Get(0, key)
			refV, exists := ref[key]
			if ok != exists || (ok && v != refV) {
				t.Fatalf("op %d: Get(%d) = (%d,%v), ref (%d,%v)", i, key, v, ok, refV, exists)
			}
		}
		leave(tr, 0)
	}
	if m.Len() != len(ref) {
		t.Fatalf("Len = %d, ref %d", m.Len(), len(ref))
	}
}

// ConcurrentChurn hammers the structure from many goroutines. Each
// thread owns a key stripe it mutates and models exactly; all threads
// additionally read random keys and verify the checksum invariant
// (catching reads of recycled nodes). Afterwards the structure must
// agree with the union of the per-thread models, and the arena must
// account for every node.
func ConcurrentChurn(t *testing.T, f Factory, scheme string, opts Options) {
	threads := runtime.GOMAXPROCS(0)
	if threads < 4 {
		threads = 4
	}
	if threads > 16 {
		threads = 16
	}
	a := arena.New(opts.ArenaCap)
	tr := newTracker(t, scheme, a, threads)
	m := f(a, tr)

	seed := phaseSeed(t)
	errc := make(chan string, threads)
	var wg sync.WaitGroup
	models := make([]map[uint64]bool, threads)

	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := laneRNG(seed, tid)
			model := map[uint64]bool{}
			models[tid] = model
			for i := 0; i < opts.OpsPerThread; i++ {
				// Own-stripe keys: key % threads == tid.
				key := uint64(rng.Intn(int(opts.KeySpace)))*uint64(threads) + uint64(tid)
				enter(tr, tid)
				switch rng.Intn(4) {
				case 0:
					got := m.Insert(tid, key, checksum(key))
					if got == model[key] {
						errc <- fmt.Sprintf("tid %d: Insert(%d)=%v but model says %v", tid, key, got, model[key])
						leave(tr, tid)
						return
					}
					model[key] = true
				case 1:
					got := m.Delete(tid, key)
					if got != model[key] {
						errc <- fmt.Sprintf("tid %d: Delete(%d)=%v but model says %v", tid, key, got, model[key])
						leave(tr, tid)
						return
					}
					model[key] = false
				case 2:
					v, ok := m.Get(tid, key)
					if ok != model[key] || (ok && v != checksum(key)) {
						errc <- fmt.Sprintf("tid %d: Get(%d)=(%d,%v) but model says %v", tid, key, v, ok, model[key])
						leave(tr, tid)
						return
					}
				default:
					// Foreign read: only the checksum invariant applies.
					fk := uint64(rng.Intn(int(opts.KeySpace) * threads))
					if v, ok := m.Get(tid, fk); ok && v != checksum(fk) {
						errc <- fmt.Sprintf("tid %d: foreign Get(%d) returned %d, want %d (use-after-free?)", tid, fk, v, checksum(fk))
						leave(tr, tid)
						return
					}
				}
				leave(tr, tid)
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for e := range errc {
		t.Fatal(e)
	}

	// The final structure must match the union of per-thread models.
	want := 0
	for tid, model := range models {
		for key, present := range model {
			enter(tr, tid)
			v, ok := m.Get(tid, key)
			leave(tr, tid)
			if ok != present || (ok && v != checksum(key)) {
				t.Fatalf("post-churn: key %d present=%v want %v", key, ok, present)
			}
			if present {
				want++
			}
		}
	}
	if got := m.Len(); got != want {
		t.Fatalf("Len = %d, models say %d", got, want)
	}

	// Reclamation accounting at quiescence.
	if fl, ok := tr.(smr.Flusher); ok {
		for pass := 0; pass < 3; pass++ {
			for tid := 0; tid < threads; tid++ {
				fl.Flush(tid)
			}
		}
	}
	st := tr.Stats()
	if scheme != "leaky" {
		slack := int64(4096) + opts.LeakSlack
		if un := st.Unreclaimed(); un > slack {
			t.Fatalf("%d nodes unreclaimed at quiescence (slack %d)", un, slack)
		}
	}
	live := a.Live()
	// live = structure nodes + retired-but-unreclaimed + bounded leaks.
	lower := st.Unreclaimed()
	upper := st.Unreclaimed() + int64(structureNodeBound(m.Len())) + opts.LeakSlack
	if live < lower || live > upper {
		t.Fatalf("arena live=%d outside [%d, %d] (len=%d, stats %+v)",
			live, lower, upper, m.Len(), st)
	}
}

// FlushTrim exercises the smr.Flusher and smr.Trimmer sub-interfaces
// against the structure: Trim replaces per-operation Leave/Enter for the
// first half of the churn (the paper's §3.3 usage), Flush is called
// periodically outside operations during the second half, and after the
// structure is emptied repeated flushing must drain the unreclaimed
// count toward zero (plus the structure's LeakSlack). Schemes that
// implement neither interface are skipped; Leaky's Flush is a no-op by
// design, so it is skipped too.
func FlushTrim(t *testing.T, f Factory, scheme string, opts Options) {
	a := arena.New(opts.ArenaCap)
	threads := runtime.GOMAXPROCS(0)
	if threads < 4 {
		threads = 4
	}
	if threads > 8 {
		threads = 8
	}
	tr := newTracker(t, scheme, a, threads)
	fl, isFlusher := tr.(smr.Flusher)
	tm, isTrimmer := tr.(smr.Trimmer)
	if !isFlusher && !isTrimmer {
		t.Skipf("%s implements neither Flusher nor Trimmer", scheme)
	}
	if scheme == "leaky" {
		t.Skip("leaky never reclaims; nothing can drain")
	}
	m := f(a, tr)

	seed := phaseSeed(t)
	ops := opts.OpsPerThread / 2
	errc := make(chan string, threads)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := laneRNG(seed, tid)
			churn := func() bool {
				// Own-stripe keys, mutation-only: maximum retire traffic.
				key := uint64(rng.Intn(int(opts.KeySpace)))*uint64(threads) + uint64(tid)
				if rng.Intn(2) == 0 {
					m.Insert(tid, key, checksum(key))
				} else {
					m.Delete(tid, key)
				}
				if v, ok := m.Get(tid, key); ok && v != checksum(key) {
					errc <- fmt.Sprintf("tid %d: Get(%d) = %d, want %d (use-after-free?)",
						tid, key, v, checksum(key))
					return false
				}
				return true
			}
			if isTrimmer {
				// Trim mode: one long operation, trimmed instead of left.
				tr.Enter(tid)
				for i := 0; i < ops/2; i++ {
					if !churn() {
						tr.Leave(tid)
						return
					}
					tm.Trim(tid)
				}
				tr.Leave(tid)
			}
			// Enter/Leave mode with periodic mid-churn flushes.
			for i := 0; i < ops/2; i++ {
				tr.Enter(tid)
				ok := churn()
				tr.Leave(tid)
				if !ok {
					return
				}
				if isFlusher && i%256 == 255 {
					fl.Flush(tid)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for e := range errc {
		t.Fatal(e)
	}

	// Empty the structure so that, at quiescence, everything ever
	// allocated is retire traffic the scheme must be able to reclaim.
	for tid := 0; tid < threads; tid++ {
		for k := 0; k < int(opts.KeySpace); k++ {
			key := uint64(k)*uint64(threads) + uint64(tid)
			enter(tr, tid)
			m.Delete(tid, key)
			leave(tr, tid)
		}
	}
	if got := m.Len(); got != 0 {
		t.Fatalf("Len = %d after full drain", got)
	}
	if isFlusher {
		for pass := 0; pass < 3; pass++ {
			for tid := 0; tid < threads; tid++ {
				fl.Flush(tid)
			}
		}
	}
	st := tr.Stats()
	slack := int64(512) + opts.LeakSlack
	if un := st.Unreclaimed(); un > slack {
		t.Fatalf("flush did not drain: %d nodes unreclaimed at quiescence (slack %d, stats %+v)",
			un, slack, st)
	}
	// Every live arena node must be accounted for by the (empty-ish)
	// structure, the pending retirements, or the tolerated leaks.
	live := a.Live()
	upper := st.Unreclaimed() + int64(structureNodeBound(0)) + opts.LeakSlack
	if live > upper {
		t.Fatalf("arena live=%d exceeds %d after drain (stats %+v)", live, upper, st)
	}
}

// RangeScan exercises the Ranger extension under churn. Half the
// threads insert and delete on private key stripes while the other half
// run range scans over random windows. Every scan — even one observed
// mid-churn — must be strictly increasing (hence sorted and
// duplicate-free), bounded by [lo, hi], and carry the checksum value
// invariant (a violation exposes a recycled node). A set of anchor keys
// on a stripe no churner touches is inserted up front and never removed:
// a sound scan must observe every anchor inside its window, which
// catches traversals that skip live portions of the structure after a
// retry or a helped unlink. At quiescence, a full-range scan must agree
// exactly with the union of the per-thread models. Structures that do
// not implement Ranger skip the phase.
func RangeScan(t *testing.T, f Factory, scheme string, opts Options) {
	a := arena.New(opts.ArenaCap)
	threads := runtime.GOMAXPROCS(0)
	if threads < 4 {
		threads = 4
	}
	if threads > 8 {
		threads = 8
	}
	tr := newTracker(t, scheme, a, threads)
	m := f(a, tr)
	r, ok := m.(Ranger)
	if !ok {
		t.Skipf("structure does not implement Range")
	}

	churners := threads / 2
	scanners := threads - churners
	// Keys j*stride + c for c < churners are churner c's stripe; residue
	// churners is the anchor stripe, which no churner ever touches.
	stride := uint64(churners + 1)
	maxKey := opts.KeySpace * stride // exclusive upper bound of the key span

	// Anchors: inserted once, never deleted, so every scan must see them.
	anchorEvery := uint64(8)
	anchors := make([]uint64, 0, opts.KeySpace/anchorEvery+1)
	for j := uint64(0); j < opts.KeySpace; j += anchorEvery {
		key := j*stride + uint64(churners)
		enter(tr, 0)
		if !m.Insert(0, key, checksum(key)) {
			t.Fatalf("anchor Insert(%d) failed", key)
		}
		leave(tr, 0)
		anchors = append(anchors, key)
	}

	seed := phaseSeed(t)
	var (
		done    atomic.Bool
		churnWg sync.WaitGroup
		scanWg  sync.WaitGroup
		errc    = make(chan string, threads)
		models  = make([]map[uint64]bool, churners)
	)
	for w := 0; w < churners; w++ {
		churnWg.Add(1)
		go func(tid int) {
			defer churnWg.Done()
			rng := laneRNG(seed, tid)
			model := map[uint64]bool{}
			models[tid] = model
			for i := 0; i < opts.OpsPerThread; i++ {
				key := uint64(rng.Intn(int(opts.KeySpace)))*stride + uint64(tid)
				enter(tr, tid)
				if rng.Intn(2) == 0 {
					got := m.Insert(tid, key, checksum(key))
					if got == model[key] {
						errc <- fmt.Sprintf("tid %d: Insert(%d)=%v but model says %v", tid, key, got, model[key])
						leave(tr, tid)
						return
					}
					model[key] = true
				} else {
					got := m.Delete(tid, key)
					if got != model[key] {
						errc <- fmt.Sprintf("tid %d: Delete(%d)=%v but model says %v", tid, key, got, model[key])
						leave(tr, tid)
						return
					}
					model[key] = false
				}
				leave(tr, tid)
			}
		}(w)
	}

	// checkScan validates one observation sequence against the invariants
	// every scan must satisfy, churn or no churn.
	type kv struct{ k, v uint64 }
	checkScan := func(lo, hi uint64, got []kv) string {
		for i, e := range got {
			if e.k < lo || e.k > hi {
				return fmt.Sprintf("scan [%d,%d] observed out-of-range key %d", lo, hi, e.k)
			}
			if i > 0 && got[i-1].k >= e.k {
				return fmt.Sprintf("scan [%d,%d] not strictly increasing: %d then %d", lo, hi, got[i-1].k, e.k)
			}
			if e.v != checksum(e.k) {
				return fmt.Sprintf("scan [%d,%d] key %d carries value %d, want %d (use-after-free?)", lo, hi, e.k, e.v, checksum(e.k))
			}
		}
		// Every anchor inside the window must have been observed.
		seen := make(map[uint64]bool, len(got))
		for _, e := range got {
			seen[e.k] = true
		}
		for _, ak := range anchors {
			if ak >= lo && ak <= hi && !seen[ak] {
				return fmt.Sprintf("scan [%d,%d] missed anchor key %d (always present)", lo, hi, ak)
			}
		}
		return ""
	}

	for w := 0; w < scanners; w++ {
		scanWg.Add(1)
		go func(tid int) {
			defer scanWg.Done()
			rng := laneRNG(seed, tid)
			buf := make([]kv, 0, 256)
			for scans := 0; !done.Load() || scans < 16; scans++ {
				lo := uint64(rng.Int63n(int64(maxKey)))
				hi := lo + uint64(rng.Int63n(int64(stride*64)))
				buf = buf[:0]
				enter(tr, tid)
				r.Range(tid, lo, hi, func(k, v uint64) bool {
					buf = append(buf, kv{k, v})
					return true
				})
				leave(tr, tid)
				if msg := checkScan(lo, hi, buf); msg != "" {
					errc <- fmt.Sprintf("tid %d: %s", tid, msg)
					return
				}
			}
		}(churners + w)
	}

	// Churners finishing releases the scanners (after a minimum count).
	churnWg.Wait()
	done.Store(true)
	scanWg.Wait()
	close(errc)
	for e := range errc {
		t.Fatal(e)
	}

	// Quiescence: a full-range scan must agree exactly with the union of
	// the per-churner models plus the anchors.
	want := map[uint64]bool{}
	for _, ak := range anchors {
		want[ak] = true
	}
	for _, model := range models {
		for key, present := range model {
			if present {
				want[key] = true
			}
		}
	}
	var got []kv
	enter(tr, 0)
	r.Range(0, 0, maxKey, func(k, v uint64) bool {
		got = append(got, kv{k, v})
		return true
	})
	leave(tr, 0)
	if msg := checkScan(0, maxKey, got); msg != "" {
		t.Fatalf("quiescent %s", msg)
	}
	if len(got) != len(want) {
		t.Fatalf("quiescent scan observed %d keys, models say %d", len(got), len(want))
	}
	for _, e := range got {
		if !want[e.k] {
			t.Fatalf("quiescent scan observed key %d that the models never inserted", e.k)
		}
	}
	if got := m.Len(); got != len(want) {
		t.Fatalf("Len = %d, models say %d", got, len(want))
	}

	// An early-terminated scan must stop exactly where fn said stop.
	limit := 3
	var short []kv
	enter(tr, 0)
	r.Range(0, 0, maxKey, func(k, v uint64) bool {
		short = append(short, kv{k, v})
		limit--
		return limit > 0
	})
	leave(tr, 0)
	if len(want) >= 3 && len(short) != 3 {
		t.Fatalf("early-terminated scan visited %d keys, want 3", len(short))
	}
}

// underLease runs fn under a tid leased from pool with its bracket open,
// the way the KV runs one operation (or one batch).
func underLease(pool *session.Pool, fn func(s *session.Session)) {
	s := pool.Acquire()
	defer pool.Release(s)
	s.Enter()
	defer s.Leave()
	fn(s)
}

// SessionChurn drives the structure through the goroutine-transparent
// session layer: far more goroutines than tids, each leasing a session
// per operation from a session.Pool. A tid therefore migrates between
// goroutines thousands of times under live insert/delete load — the
// "threads off the hook at Leave" property end to end. Each goroutine
// owns a key stripe it models exactly (correctness must not depend on
// WHICH tid an operation happens to lease), all goroutines verify the
// checksum invariant on foreign reads, and at quiescence the structure,
// the models, the pool's lease ledger and the arena must all agree.
func SessionChurn(t *testing.T, f Factory, scheme string, opts Options) {
	a := arena.New(opts.ArenaCap)
	maxThreads := 4
	goroutines := 3 * maxThreads // strictly more goroutines than tids
	tr := newTracker(t, scheme, a, maxThreads)
	m := f(a, tr)
	pool := session.NewPool(tr, maxThreads)

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
				// Own-stripe keys: key % goroutines == g.
				key := uint64(rng.Intn(int(opts.KeySpace)))*uint64(goroutines) + uint64(g)
				fail := ""
				underLease(pool, func(s *session.Session) {
					tid := s.Tid()
					switch rng.Intn(4) {
					case 0:
						if got := m.Insert(tid, key, checksum(key)); got == model[key] {
							fail = fmt.Sprintf("g %d (tid %d): Insert(%d)=%v but model says %v", g, tid, key, got, model[key])
							return
						}
						model[key] = true
					case 1:
						if got := m.Delete(tid, key); got != model[key] {
							fail = fmt.Sprintf("g %d (tid %d): Delete(%d)=%v but model says %v", g, tid, key, got, model[key])
							return
						}
						model[key] = false
					case 2:
						v, ok := m.Get(tid, key)
						if ok != model[key] || (ok && v != checksum(key)) {
							fail = fmt.Sprintf("g %d (tid %d): Get(%d)=(%d,%v) but model says %v", g, tid, key, v, ok, model[key])
							return
						}
					default:
						// Foreign read: only the checksum invariant applies.
						fk := uint64(rng.Intn(int(opts.KeySpace) * goroutines))
						if v, ok := m.Get(tid, fk); ok && v != checksum(fk) {
							fail = fmt.Sprintf("g %d (tid %d): foreign Get(%d) returned %d, want %d (use-after-free?)", g, tid, fk, v, checksum(fk))
							return
						}
					}
				})
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

	// Quiescence: every lease must have been returned.
	if leased := pool.InUse(); leased != 0 {
		t.Fatalf("%d tids still leased after all goroutines exited", leased)
	}

	// The final structure must match the union of per-goroutine models.
	want := 0
	for g, model := range models {
		for key, present := range model {
			var v uint64
			var ok bool
			underLease(pool, func(s *session.Session) {
				v, ok = m.Get(s.Tid(), key)
			})
			if ok != present || (ok && v != checksum(key)) {
				t.Fatalf("g %d: post-churn key %d present=%v want %v", g, key, ok, present)
			}
			if present {
				want++
			}
		}
	}
	if got := m.Len(); got != want {
		t.Fatalf("Len = %d, models say %d", got, want)
	}

	// Reclamation accounting at quiescence, via the pool-wide drain.
	for pass := 0; pass < 3; pass++ {
		pool.Flush()
	}
	st := tr.Stats()
	if scheme != "leaky" {
		slack := int64(4096) + opts.LeakSlack
		if un := st.Unreclaimed(); un > slack {
			t.Fatalf("%d nodes unreclaimed at quiescence (slack %d)", un, slack)
		}
	}
	live := a.Live()
	lower := st.Unreclaimed()
	upper := st.Unreclaimed() + int64(structureNodeBound(m.Len())) + opts.LeakSlack
	if live < lower || live > upper {
		t.Fatalf("arena live=%d outside [%d, %d] (len=%d, stats %+v)",
			live, lower, upper, m.Len(), st)
	}
}

// batchOp is one op of a BatchChurn batch, with its expected result
// precomputed against the goroutine's stripe model (stripe ops are
// sequential within their goroutine, so the model is exact).
type batchOp struct {
	kind   int // 0 insert, 1 delete, 2 own-stripe get, 3 foreign get
	key    uint64
	expect bool
}

// BatchChurn drives batched operations through the session layer
// against singleton operations on the same structure: half the
// goroutines lease ONE session per batch and run the whole batch under
// a single (periodically trimmed) Enter/Leave bracket — the
// amortization contract of the KV batch API — while the other half
// lease per operation. Each goroutine owns a key stripe it models
// exactly, so correctness must survive tids migrating between batched
// and singleton callers mid-flight. At quiescence the structure, the
// models, the pool's lease ledger and the arena must all agree.
func BatchChurn(t *testing.T, f Factory, scheme string, opts Options) {
	a := arena.New(opts.ArenaCap)
	maxThreads := 4
	goroutines := 3 * maxThreads // strictly more goroutines than tids
	tr := newTracker(t, scheme, a, maxThreads)
	m := f(a, tr)
	pool := session.NewPool(tr, maxThreads)

	const (
		batchSize = 32
		trimEvery = 16 // two trims per batch: reclamation advances mid-bracket
	)
	batches := opts.OpsPerThread / (4 * batchSize)
	if batches < 8 {
		batches = 8
	}

	seed := phaseSeed(t)
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
			stripeKey := func() uint64 {
				return uint64(rng.Intn(int(opts.KeySpace)))*uint64(goroutines) + uint64(g)
			}
			foreignKey := func() uint64 {
				return uint64(rng.Intn(int(opts.KeySpace) * goroutines))
			}

			if g%2 == 0 {
				// Batched caller: one lease + one trimmed bracket per batch.
				batch := make([]batchOp, 0, batchSize)
				for b := 0; b < batches; b++ {
					batch = batch[:0]
					for i := 0; i < batchSize; i++ {
						switch k := rng.Intn(4); k {
						case 0:
							key := stripeKey()
							batch = append(batch, batchOp{kind: 0, key: key, expect: !model[key]})
							model[key] = true
						case 1:
							key := stripeKey()
							batch = append(batch, batchOp{kind: 1, key: key, expect: model[key]})
							model[key] = false
						case 2:
							key := stripeKey()
							batch = append(batch, batchOp{kind: 2, key: key, expect: model[key]})
						default:
							batch = append(batch, batchOp{kind: 3, key: foreignKey()})
						}
					}
					fail := ""
					underLease(pool, func(s *session.Session) {
						tid := s.Tid()
						for i, op := range batch {
							if i > 0 && i%trimEvery == 0 {
								s.Trim()
							}
							switch op.kind {
							case 0:
								if got := m.Insert(tid, op.key, checksum(op.key)); got != op.expect {
									fail = fmt.Sprintf("g %d (tid %d): batched Insert(%d)=%v, model %v", g, tid, op.key, got, op.expect)
									return
								}
							case 1:
								if got := m.Delete(tid, op.key); got != op.expect {
									fail = fmt.Sprintf("g %d (tid %d): batched Delete(%d)=%v, model %v", g, tid, op.key, got, op.expect)
									return
								}
							case 2:
								v, ok := m.Get(tid, op.key)
								if ok != op.expect || (ok && v != checksum(op.key)) {
									fail = fmt.Sprintf("g %d (tid %d): batched Get(%d)=(%d,%v), model %v", g, tid, op.key, v, ok, op.expect)
									return
								}
							default:
								if v, ok := m.Get(tid, op.key); ok && v != checksum(op.key) {
									fail = fmt.Sprintf("g %d (tid %d): batched foreign Get(%d)=%d, want %d (use-after-free?)", g, tid, op.key, v, checksum(op.key))
									return
								}
							}
						}
					})
					if fail != "" {
						errc <- fail
						return
					}
				}
				return
			}

			// Singleton caller: one lease per operation, same op budget.
			for i := 0; i < batches*batchSize; i++ {
				fail := ""
				underLease(pool, func(s *session.Session) {
					tid := s.Tid()
					switch rng.Intn(4) {
					case 0:
						key := stripeKey()
						if got := m.Insert(tid, key, checksum(key)); got == model[key] {
							fail = fmt.Sprintf("g %d (tid %d): Insert(%d)=%v, model %v", g, tid, key, got, model[key])
							return
						}
						model[key] = true
					case 1:
						key := stripeKey()
						if got := m.Delete(tid, key); got != model[key] {
							fail = fmt.Sprintf("g %d (tid %d): Delete(%d)=%v, model %v", g, tid, key, got, model[key])
							return
						}
						model[key] = false
					case 2:
						key := stripeKey()
						v, ok := m.Get(tid, key)
						if ok != model[key] || (ok && v != checksum(key)) {
							fail = fmt.Sprintf("g %d (tid %d): Get(%d)=(%d,%v), model %v", g, tid, key, v, ok, model[key])
							return
						}
					default:
						fk := foreignKey()
						if v, ok := m.Get(tid, fk); ok && v != checksum(fk) {
							fail = fmt.Sprintf("g %d (tid %d): foreign Get(%d)=%d, want %d (use-after-free?)", g, tid, fk, v, checksum(fk))
							return
						}
					}
				})
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

	// Quiescence: the lease ledger must be empty again.
	if leased := pool.InUse(); leased != 0 {
		t.Fatalf("%d tids still leased after all goroutines exited", leased)
	}

	// The structure must match the union of the per-goroutine models.
	want := 0
	for g, model := range models {
		for key, present := range model {
			var v uint64
			var ok bool
			underLease(pool, func(s *session.Session) {
				v, ok = m.Get(s.Tid(), key)
			})
			if ok != present || (ok && v != checksum(key)) {
				t.Fatalf("g %d: post-churn key %d present=%v want %v", g, key, ok, present)
			}
			if present {
				want++
			}
		}
	}
	if got := m.Len(); got != want {
		t.Fatalf("Len = %d, models say %d", got, want)
	}

	// Reclamation accounting at quiescence: long brackets must not have
	// starved the schemes (the per-chunk Trim is what guarantees this).
	for pass := 0; pass < 3; pass++ {
		pool.Flush()
	}
	st := tr.Stats()
	if scheme != "leaky" {
		slack := int64(4096) + opts.LeakSlack
		if un := st.Unreclaimed(); un > slack {
			t.Fatalf("%d nodes unreclaimed at quiescence (slack %d)", un, slack)
		}
	}
	live := a.Live()
	lower := st.Unreclaimed()
	upper := st.Unreclaimed() + int64(structureNodeBound(m.Len())) + opts.LeakSlack
	if live < lower || live > upper {
		t.Fatalf("arena live=%d outside [%d, %d] (len=%d, stats %+v)",
			live, lower, upper, m.Len(), st)
	}
}

// structureNodeBound over-approximates how many arena nodes a structure
// with n entries may own (trees allocate internal routing nodes).
func structureNodeBound(n int) int { return 2*n + 64 }
