// Package bench is the measurement harness that regenerates the paper's
// evaluation: throughput and unreclaimed-object curves for every
// combination of data structure, reclamation scheme, workload mix,
// thread count, stalled-thread count and trimming mode (Figures 8–12).
//
// Methodology, after §6 of the paper: the structure is prefilled with
// Prefill elements drawn from [0, KeyRange); each worker then runs the
// operation mix for Duration with uniformly random keys. Throughput is
// total operations over wall time. The unreclaimed-object metric samples
// retired-minus-freed on a fixed cadence and averages the samples —
// the analogue of the framework's "retired objects per operation" plots.
package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hyaline/internal/arena"
	"hyaline/internal/ds"
	"hyaline/internal/session"
	"hyaline/internal/smr"
	"hyaline/internal/trackers"
)

// Workload is an operation mix in percent. Operations not covered by
// the insert/delete percentages are gets, so GetPct is informational.
type Workload struct {
	InsertPct int
	DeletePct int
	GetPct    int
}

// The paper's two workloads.
var (
	// WriteHeavy is the §6 write-intensive mix (50% insert, 50% delete).
	WriteHeavy = Workload{InsertPct: 50, DeletePct: 50}
	// ReadMostly is the Appendix A mix (90% get, 10% put split evenly).
	ReadMostly = Workload{InsertPct: 5, DeletePct: 5, GetPct: 90}
)

// Name returns the figure-caption name of the workload.
func (w Workload) Name() string {
	if w.GetPct >= 50 {
		return "read-mostly"
	}
	return "write-heavy"
}

// Config describes one benchmark run (one data point of one curve).
type Config struct {
	// Structure is the data structure name (see ds.Names).
	Structure string
	// Scheme is the reclamation scheme name (see trackers.Names).
	Scheme string
	// Threads is the active worker count.
	Threads int
	// Stalled adds workers that enter, touch the structure once and then
	// stall inside their operation until the run ends (Figure 10a).
	Stalled int
	// Duration is the measurement window. Default 1s.
	Duration time.Duration
	// Prefill is the initial element count. Default 50000 (the paper).
	Prefill int
	// KeyRange is the key universe. Default 100000 (the paper).
	KeyRange uint64
	// Workload is the operation mix. Default WriteHeavy.
	Workload Workload
	// Trim replaces per-operation leave/enter with Hyaline's trim (§3.3,
	// Figure 10b). Only Hyaline variants support it.
	Trim bool
	// Sessions drives the workload through the goroutine-transparent
	// session layer (internal/session): Goroutines workers lease the
	// Threads tids per operation instead of owning one statically, so
	// the worker count may exceed MaxThreads — oversubscription through
	// leasing rather than preemption. Incompatible with Trim, which
	// needs a tid held across operations.
	Sessions bool
	// Goroutines is the worker count in session mode (default
	// 2×Threads). Ignored unless Sessions is set.
	Goroutines int
	// Tracker carries scheme tuning; MaxThreads is filled in by Run.
	Tracker trackers.Config
	// ArenaCap overrides the node pool size. The default scales with the
	// prefill and duration; Leaky needs the headroom (capacity is virtual
	// until touched).
	ArenaCap int
}

func (c *Config) fill() {
	if c.Duration == 0 {
		c.Duration = time.Second
	}
	if c.Prefill == 0 {
		c.Prefill = 50_000
	}
	if c.KeyRange == 0 {
		c.KeyRange = 100_000
	}
	if c.Workload == (Workload{}) {
		c.Workload = WriteHeavy
	}
	if c.ArenaCap == 0 {
		// 32M nodes of virtual headroom per second of window, and at most
		// that many: a short point must not pin a 4 GB pool.
		c.ArenaCap = min(1<<25, c.Prefill+int(c.Duration.Seconds()*(1<<25)))
	}
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.Sessions && c.Goroutines <= 0 {
		c.Goroutines = 2 * c.Threads
	}
}

// Result is one measured data point.
type Result struct {
	Structure string
	Scheme    string
	Threads   int
	Stalled   int
	// Goroutines is the session-mode worker count (0 when workers own
	// their tids statically).
	Goroutines int
	Workload   string
	Duration   time.Duration

	Ops            int64
	ThroughputMops float64 // million operations per second
	AvgUnreclaimed float64 // time-averaged retired-but-not-freed nodes
	MaxUnreclaimed int64
	FinalStats     smr.Stats
}

// String formats the result as one table row.
func (r Result) String() string {
	row := fmt.Sprintf("%-10s %-11s thr=%-4d stall=%-3d %-11s %8.3f Mops/s  avg-unreclaimed=%10.0f",
		r.Structure, r.Scheme, r.Threads, r.Stalled, r.Workload,
		r.ThroughputMops, r.AvgUnreclaimed)
	if r.Goroutines > 0 {
		row += fmt.Sprintf("  sessions(gor=%d)", r.Goroutines)
	}
	return row
}

// Run executes one benchmark configuration.
func Run(cfg Config) (Result, error) {
	cfg.fill()
	if !ds.Supports(cfg.Structure, cfg.Scheme) {
		return Result{}, fmt.Errorf("bench: %s does not support scheme %s", cfg.Structure, cfg.Scheme)
	}
	if cfg.Trim && cfg.Scheme != "hyaline" && cfg.Scheme != "hyaline-1" &&
		cfg.Scheme != "hyaline-s" && cfg.Scheme != "hyaline-1s" {
		return Result{}, fmt.Errorf("bench: trim applies only to Hyaline variants, not %s", cfg.Scheme)
	}
	if cfg.Trim && cfg.Sessions {
		return Result{}, fmt.Errorf("bench: trim needs a tid held across operations; sessions lease one per operation")
	}
	total := cfg.Threads + cfg.Stalled
	tcfg := cfg.Tracker
	tcfg.MaxThreads = total
	a := takeArena(cfg.ArenaCap)
	defer putArena(a)
	tr, err := trackers.New(cfg.Scheme, a, tcfg)
	if err != nil {
		return Result{}, err
	}
	m, err := ds.New(cfg.Structure, a, tr, total)
	if err != nil {
		return Result{}, err
	}
	prefill(tr, m, cfg)

	// In session mode, workers lease tids per operation instead of
	// owning one; there may be more workers than tids.
	workers := cfg.Threads
	var pool *session.Pool
	if cfg.Sessions {
		workers = cfg.Goroutines
		pool = session.NewPool(tr, total)
	}

	var (
		stop    atomic.Bool
		started sync.WaitGroup
		done    sync.WaitGroup
		release = make(chan struct{})
		opCount = make([]paddedCounter, workers)
	)

	// Stalled workers: enter, dereference the structure once (so
	// era-based schemes cover live nodes), then freeze until the end.
	// In session mode they hold a leased session for the whole run,
	// shrinking the tid supply the active goroutines share.
	stallWoken := make(chan struct{})
	for i := 0; i < cfg.Stalled; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			tid := cfg.Threads + i
			var s *session.Session
			if pool != nil {
				s = pool.Acquire()
				tid = s.Tid()
			}
			tr.Enter(tid)
			m.Get(tid, uint64(tid)%cfg.KeyRange)
			started.Done()
			<-stallWoken // park inside the operation
			tr.Leave(tid)
			if s != nil {
				pool.Release(s)
			}
		}(i)
	}

	for w := 0; w < workers; w++ {
		started.Add(1)
		done.Add(1)
		go func(w int) {
			defer done.Done()
			rng := rand.New(rand.NewSource(int64(w)*2654435761 + 1))
			started.Done()
			<-release

			trimmer, _ := tr.(smr.Trimmer)
			tid := w
			if cfg.Trim {
				tr.Enter(tid)
			}
			ops := int64(0)
			// One operation per iteration, in its own lease and
			// Enter/Leave bracket; trim mode keeps one run-long bracket
			// and trims after every operation instead.
			for !stop.Load() {
				var s *session.Session
				if pool != nil {
					s = pool.Acquire()
					tid = s.Tid()
				}
				if !cfg.Trim {
					tr.Enter(tid)
				}
				key := uint64(rng.Int63n(int64(cfg.KeyRange)))
				mix := rng.Intn(100)
				switch {
				case mix < cfg.Workload.InsertPct:
					m.Insert(tid, key, key*31+7)
				case mix < cfg.Workload.InsertPct+cfg.Workload.DeletePct:
					m.Delete(tid, key)
				default:
					m.Get(tid, key)
				}
				ops++
				if cfg.Trim {
					trimmer.Trim(tid)
				} else {
					tr.Leave(tid)
				}
				if s != nil {
					pool.Release(s)
				}
			}
			if cfg.Trim {
				tr.Leave(tid)
			}
			opCount[w].v.Store(ops)
		}(w)
	}

	started.Wait()
	start := time.Now()
	close(release)

	var un unreclaimed
	sampleFor(cfg.Duration, func() { un.observe(tr.Stats().Unreclaimed()) })
	stop.Store(true)
	close(stallWoken)
	done.Wait()
	elapsed := time.Since(start)

	var ops int64
	for i := range opCount {
		ops += opCount[i].v.Load()
	}
	goroutines := 0
	if cfg.Sessions {
		goroutines = cfg.Goroutines
	}
	return Result{
		Structure:      cfg.Structure,
		Scheme:         cfg.Scheme,
		Threads:        cfg.Threads,
		Stalled:        cfg.Stalled,
		Goroutines:     goroutines,
		Workload:       cfg.Workload.Name(),
		Duration:       elapsed,
		Ops:            ops,
		ThroughputMops: float64(ops) / elapsed.Seconds() / 1e6,
		AvgUnreclaimed: un.avg(),
		MaxUnreclaimed: un.max,
		FinalStats:     tr.Stats(),
	}, nil
}

type paddedCounter struct {
	v atomic.Int64
	_ [7]uint64
}

// unreclaimed accumulates one run's samples of the retired-but-not-freed
// count: the time average the paper plots, and the peak.
type unreclaimed struct {
	samples int64
	sum     float64
	max     int64
}

func (u *unreclaimed) observe(n int64) {
	u.samples++
	u.sum += float64(n)
	if n > u.max {
		u.max = n
	}
}

func (u *unreclaimed) avg() float64 {
	if u.samples == 0 {
		return 0
	}
	return u.sum / float64(u.samples)
}

// sampleFor calls observe on a fixed 5 ms cadence until the measurement
// window has elapsed.
func sampleFor(window time.Duration, observe func()) {
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	deadline := time.After(window)
	for {
		select {
		case <-ticker.C:
			observe()
		case <-deadline:
			return
		}
	}
}

// arenaCache recycles the (huge, mostly virtual) node pool between
// sequential runs. A fresh arena is cheap to map at any size, but
// reuse still buys two things: the pages the last run touched stay
// resident, so the next run does not fault them in again, and a point
// never runs beside the previous point's arena while that one waits for
// the garbage collector to unmap it. Arena.Reset zeroes only the touched
// region.
var arenaCache struct {
	mu sync.Mutex
	a  *arena.Arena
}

func takeArena(capacity int) *arena.Arena {
	arenaCache.mu.Lock()
	defer arenaCache.mu.Unlock()
	if a := arenaCache.a; a != nil && a.Cap() == capacity {
		arenaCache.a = nil
		a.Reset()
		return a
	}
	return arena.New(capacity)
}

func putArena(a *arena.Arena) {
	arenaCache.mu.Lock()
	defer arenaCache.mu.Unlock()
	arenaCache.a = a
}

// prefill inserts cfg.Prefill distinct random keys into m, spreading
// the work over a handful of goroutines (the structure is concurrent,
// after all).
func prefill(tr smr.Tracker, m ds.Map, cfg Config) {
	workers := runtime.GOMAXPROCS(0)
	if workers > cfg.Threads {
		workers = cfg.Threads
	}
	if workers < 1 {
		workers = 1
	}
	var inserted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(tid) + 12345))
			for inserted.Load() < int64(cfg.Prefill) {
				key := uint64(rng.Int63n(int64(cfg.KeyRange)))
				tr.Enter(tid)
				if m.Insert(tid, key, key*31+7) {
					inserted.Add(1)
				}
				tr.Leave(tid)
			}
		}(w)
	}
	wg.Wait()
}
