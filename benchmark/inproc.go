package main

import (
	"fmt"
	"sync"
	"time"
)

// kvInst is kv_mixed: goroutines calling the public hyaline.KV.
type kvInst struct {
	sp   *spec
	seed uint64
	kv   *kvT
}

func setupKV(sp *spec, seed uint64) (*kvInst, error) {
	kv, err := newKV(sp.structure, sp.scheme)
	if err != nil {
		return nil, err
	}
	prefillKeys(sp, seed, func(key uint64) bool { return kv.Insert(key, valueOf(key)) })
	return &kvInst{sp: sp, seed: seed, kv: kv}, nil
}

func (in *kvInst) stats() smrStats { return in.kv.Stats() }
func (in *kvInst) live() int64     { return in.kv.Live() }

func (in *kvInst) run(ck clock, tr *tracer) []*acc {
	return runWorkers(in.sp, in.seed, ck, tr, func(w *worker, o op) {
		switch o.kind {
		case opGet:
			if v, ok := in.kv.Get(o.key); ok && v != valueOf(o.key) {
				w.fail(1, fmt.Errorf("%s: Get(%d) = %d, want %d", in.sp.name, o.key, v, valueOf(o.key)))
			}
		case opSet:
			if in.kv.Insert(o.key, valueOf(o.key)) {
				w.okSets++
			}
		case opDel:
			if in.kv.Delete(o.key) {
				w.okDels++
			}
		case opScan:
			w.scan(in.sp, o.key, in.kv.Range)
		}
	})
}

func (in *kvInst) finish(accs []*acc) []error {
	var errs []error
	if err := conserved(in.sp, in.kv.Len(), accs); err != nil {
		errs = append(errs, err)
	}
	if n := in.kv.InFlight(); n != 0 {
		errs = append(errs, fmt.Errorf("%s: %d leases still in flight at quiescence", in.sp.name, n))
	}
	return errs
}

// conserved checks that the map holds exactly what the successful
// mutations left in it.
func conserved(sp *spec, got int, accs []*acc) error {
	want := int64(sp.prefill)
	for _, a := range accs {
		want += a.okSets - a.okDels
	}
	if int64(got) != want {
		return fmt.Errorf("%s: Len is %d, want prefill + OK inserts - OK deletes = %d", sp.name, got, want)
	}
	return nil
}

// libInst is lib_stalled: the explicit-tid API with nothing above it.
// Workers own tids 0..clients-1; the stalled thread owns the next one.
type libInst struct {
	sp      *spec
	seed    uint64
	a       *arenaT
	tr      tracker
	m       lowMap
	threads int
	wake    chan struct{}
	parked  sync.WaitGroup
}

// libArenaCap leaves room for the plateau of unreclaimed nodes a
// stalled thread pins under hyaline-s (about 0.8 M here) several times
// over; capacity is virtual until touched.
const libArenaCap = 1 << 22

func setupLib(sp *spec, seed uint64) (*libInst, error) {
	in := &libInst{sp: sp, seed: seed, threads: sp.clients + sp.stalled, wake: make(chan struct{})}
	in.a = newArena(libArenaCap)
	var err error
	if in.tr, err = newTracker(sp.scheme, in.a, in.threads); err != nil {
		return nil, err
	}
	if in.m, err = newMap(sp.structure, in.a, in.tr, in.threads); err != nil {
		return nil, err
	}
	prefillKeys(sp, seed, func(key uint64) bool {
		in.tr.Enter(0)
		defer in.tr.Leave(0)
		return in.m.Insert(0, key, valueOf(key))
	})
	// The stalled thread enters, dereferences the structure once and
	// parks inside its operation until the run is over.
	for i := 0; i < sp.stalled; i++ {
		tid := sp.clients + i
		entered := make(chan struct{})
		in.parked.Add(1)
		go func() {
			defer in.parked.Done()
			in.tr.Enter(tid)
			in.m.Get(tid, uint64(tid)%sp.keyRange)
			close(entered)
			<-in.wake
			in.tr.Leave(tid)
		}()
		<-entered
	}
	return in, nil
}

func (in *libInst) stats() smrStats { return in.tr.Stats() }
func (in *libInst) live() int64     { return in.a.Live() }

func (in *libInst) run(ck clock, tr *tracer) []*acc {
	return runWorkers(in.sp, in.seed, ck, tr, func(w *worker, o op) {
		in.tr.Enter(w.idx)
		switch o.kind {
		case opSet:
			if in.m.Insert(w.idx, o.key, valueOf(o.key)) {
				w.okSets++
			}
		case opDel:
			if in.m.Delete(w.idx, o.key) {
				w.okDels++
			}
		default:
			if v, ok := in.m.Get(w.idx, o.key); ok && v != valueOf(o.key) {
				w.fail(1, fmt.Errorf("%s: Get(%d) = %d, want %d", in.sp.name, o.key, v, valueOf(o.key)))
			}
		}
		in.tr.Leave(w.idx)
	})
}

// drainSlack is how many unreclaimed nodes may remain after the stalled
// thread has left and every thread has flushed: Flush is best effort,
// and a partial batch per thread may stay behind.
const drainSlack = 1024

func (in *libInst) finish(accs []*acc) []error {
	var errs []error
	close(in.wake)
	in.parked.Wait()
	if err := conserved(in.sp, in.m.Len(), accs); err != nil {
		errs = append(errs, err)
	}
	// Exactly-once free: the arena panics on a double free, and what was
	// retired must drain once nothing pins it.
	if fl, ok := in.tr.(flusher); ok {
		for round := 0; round < 2; round++ {
			for tid := 0; tid < in.threads; tid++ {
				fl.Flush(tid)
			}
		}
	}
	if un := in.tr.Stats().Unreclaimed(); un > drainSlack {
		errs = append(errs, fmt.Errorf("%s: %d nodes still unreclaimed after the stalled thread left and every thread flushed", in.sp.name, un))
	}
	return errs
}

// worker is one closed-loop goroutine of an in-process workload.
type worker struct {
	acc
	idx     int
	scanned []uint64
}

// runWorkers runs sp.clients goroutines, each applying do to its own
// request stream in bursts of sp.window calls; a burst is one latency
// sample. In a traced run one call in traceSampleOps of each kind is
// timed on its own.
func runWorkers(sp *spec, seed uint64, ck clock, tr *tracer, do func(w *worker, o op)) []*acc {
	accs := make([]*acc, sp.clients)
	var wg sync.WaitGroup
	for i := 0; i < sp.clients; i++ {
		w := &worker{idx: i, scanned: make([]uint64, 0, 2*sp.scanSpan)}
		accs[i] = &w.acc
		g := newGen(sp, seed, i, -1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			end := ck.end()
			var seen [opScan + 1]int
			begin := time.Now()
			for burst := uint32(0); ; burst++ {
				if tr != nil {
					tr.window[w.idx].Store(burst)
				}
				for j := 0; j < sp.window; j++ {
					o := g.next()
					if tr == nil {
						do(w, o)
						continue
					}
					seen[o.kind]++
					if seen[o.kind]%traceSampleOps != 0 {
						do(w, o)
						continue
					}
					start := tr.now()
					do(w, o)
					kind, n := spOpGet+spanKind(o.kind), int64(1)
					if o.kind == opScan {
						n = int64(len(w.scanned))
					}
					tr.record(kind, w.idx, start, tr.now(), n)
				}
				done := time.Now()
				w.acc.window(ck, begin, done, sp.window)
				if !done.Before(end) {
					return
				}
				begin = done
			}
		}()
	}
	wg.Wait()
	return accs
}

// scan runs one range scan of sp.scanSpan keys starting at lo and checks
// what a scan guarantees: keys strictly increasing (so duplicate-free),
// inside the bounds, each with its own value.
func (w *worker) scan(sp *spec, lo uint64, rangeFn func(lo, hi uint64, fn func(key, val uint64) bool) error) {
	hi := lo + sp.scanSpan - 1
	w.scanned = w.scanned[:0]
	bad := false
	err := rangeFn(lo, hi, func(key, val uint64) bool {
		if n := len(w.scanned); key < lo || key > hi || val != valueOf(key) || n > 0 && key <= w.scanned[n-1] {
			bad = true
		}
		w.scanned = append(w.scanned, key)
		return true
	})
	if err != nil {
		w.fail(1, fmt.Errorf("%s: Range(%d, %d): %w", sp.name, lo, hi, err))
	} else if bad {
		w.fail(1, fmt.Errorf("%s: Range(%d, %d) returned keys out of order, out of bounds or with a wrong value: %v", sp.name, lo, hi, w.scanned))
	}
}
