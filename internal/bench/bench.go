// Package bench is the measurement harness that regenerates the paper's
// evaluation: throughput and unreclaimed-object curves for every
// combination of data structure, reclamation scheme, workload mix,
// thread count, stalled-thread count and trimming mode (Figures 8–12),
// in process or — with Config.Conns — through the network server.
//
// Methodology, after §6 of the paper: the structure is prefilled with
// Prefill elements drawn from [0, KeyRange); each worker then runs the
// operation mix for Duration with uniformly random keys. Throughput is
// total operations over wall time. The unreclaimed-object metric samples
// retired-minus-freed on a fixed cadence and averages the samples —
// the analogue of the framework's "retired objects per operation" plots.
package bench

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hyaline/internal/arena"
	"hyaline/internal/ds"
	"hyaline/internal/protocol"
	"hyaline/internal/session"
	"hyaline/internal/smr"
	"hyaline/internal/trackers"
)

// Workload is an operation mix in percent. Operations not covered by
// the insert/delete/range percentages are gets, so GetPct is
// informational.
type Workload struct {
	InsertPct int
	DeletePct int
	GetPct    int
	// RangePct is the share of operations that are range scans (ds.Ranger);
	// only the ordered structures support it (ds.SupportsRange).
	RangePct int
}

// The paper's two workloads, plus the scan mix this reproduction adds.
var (
	// WriteHeavy is the §6 write-intensive mix (50% insert, 50% delete).
	WriteHeavy = Workload{InsertPct: 50, DeletePct: 50}
	// ReadMostly is the Appendix A mix (90% get, 10% put split evenly).
	ReadMostly = Workload{InsertPct: 5, DeletePct: 5, GetPct: 90}
	// ScanMix stresses reclamation with long-lived readers: range scans
	// pin chains of nodes for the whole traversal, which is where the
	// schemes' unreclaimed-garbage behaviour diverges most.
	ScanMix = Workload{InsertPct: 10, DeletePct: 10, GetPct: 70, RangePct: 10}
)

// Name returns the figure-caption name of the workload.
func (w Workload) Name() string {
	if w.RangePct > 0 {
		return "scan-mix"
	}
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
	// RangeSpan is the key width of one range scan (hi = lo + RangeSpan)
	// when the workload has a RangePct. Default 128.
	RangeSpan uint64
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
	// BatchSize groups operations into batches of this size: one session
	// lease (session mode) and one Enter/Leave bracket per batch instead
	// of per operation, re-armed every session.BatchChunk ops so big
	// batches do not starve reclamation — the measurement analogue of
	// the KV batch API. 0 or 1 means singleton operations.
	BatchSize int
	// Conns switches the run into client/server mode: an in-process TCP
	// server (internal/server) over a KV with Threads leased tids is
	// driven by Conns closed-loop loopback connections instead of
	// in-process workers.
	Conns int
	// Pipeline is the number of requests each client connection keeps in
	// flight per round trip in client/server mode (1 = singleton
	// request/reply). Ignored unless Conns > 0.
	Pipeline int
	// Coalesce enables cross-connection apply coalescing in client/server
	// mode (server.Options.Coalesce): runs from many connections merge
	// into shared kv.Apply batches. Requires Conns > 0.
	Coalesce bool
	// Poll parks idle connections in the server's readiness poller
	// (server.Options.Poll) instead of pinning a goroutine per
	// connection. Requires Conns > 0 and a poller backend (Linux/BSD).
	Poll bool
	// OOO completes replies out of order on seq-framed connections
	// (server.Options.OOO); implies Coalesce. Requires Conns > 0. The
	// bench clients negotiate FlagSeq and tag every request.
	OOO bool
	// Shards is the served store's shard count in client/server mode
	// (hyaline.NewShardedKV; 0 or 1 = unsharded), which OOO completion
	// needs to have anything to reorder. Requires Conns > 0: in-process
	// runs measure one structure under one tracker.
	Shards int
	// ValueSize switches the run to a bytes-payload structure (see
	// ds.BytesNames): keys are the same uint64 universe encoded as
	// 8-byte big-endian, values are ValueSize-byte blobs. 0 keeps the
	// uint64 payload path. Bytes runs have no range scans and no
	// client/server mode (drive hyalined/hyalineload for served bytes).
	ValueSize int
	// Tracker carries scheme tuning; MaxThreads is filled in by Run.
	Tracker trackers.Config
	// ArenaCap overrides the node pool size. The default scales with the
	// prefill and duration; Leaky needs the headroom (capacity is virtual
	// until touched).
	ArenaCap int
	// Metrics attaches the server's registry snapshot to the Result
	// (client/server mode only): every counter, gauge and histogram the
	// server accumulated over the run, in the same JSON shape
	// /metrics.json serves.
	Metrics bool
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
	if c.RangeSpan == 0 {
		c.RangeSpan = 128
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
	if c.BatchSize < 1 {
		c.BatchSize = 1
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Conns > 0 && c.Pipeline < 1 {
		c.Pipeline = 1
	}
}

// maxPipelineDepth bounds client/server pipelining; see
// protocol.MaxPipelineWindow (deadlock bound, shared with hyalineload).
const maxPipelineDepth = protocol.MaxPipelineWindow

// blobClassBudget is the per-size-class blob slab budget in bytes for
// bytes runs (see arena.EnableBlobs).
const blobClassBudget = 1 << 26

// Result is one measured data point.
type Result struct {
	Structure string
	Scheme    string
	Threads   int
	Stalled   int
	// Goroutines is the session-mode worker count (0 when workers own
	// their tids statically).
	Goroutines int
	// BatchSize is the operations-per-bracket grouping (1 = singleton).
	BatchSize int
	// Conns and Pipeline echo the client/server configuration (0 when
	// the run used in-process workers); Coalesce echoes the apply mode.
	Conns    int
	Pipeline int
	Coalesce bool
	// Poll and OOO echo the serving mode: readiness-poller parking and
	// out-of-order reply completion.
	Poll bool
	OOO  bool
	// ValueSize is the bytes-run value size (0 = uint64 payloads).
	ValueSize int
	// Shards is the partition count (1 = unsharded).
	Shards   int
	Workload string
	Duration time.Duration

	Ops            int64
	ScannedKeys    int64   // keys visited by range scans (scan-mix only)
	ThroughputMops float64 // million operations per second
	AvgUnreclaimed float64 // time-averaged retired-but-not-freed nodes
	MaxUnreclaimed int64
	// Batches is the number of kv.Apply batches the server issued
	// (client/server mode only): Ops/Batches is the amortization factor
	// coalescing buys.
	Batches int64
	// P50 and P99 are client-observed round-trip latency quantiles
	// (client/server mode only; one sample per pipeline window).
	P50, P99 time.Duration
	// PeakGoroutines samples the process-wide goroutine high-water mark
	// during a client/server run — server handlers plus the in-process
	// bench clients plus the runtime.
	PeakGoroutines int
	// PeakSrvGoroutines samples Server.Goroutines(), the server-side-only
	// high-water mark (handlers, poller loop and workers, coalescer
	// workers). This is the figure-27 gauge: unlike PeakGoroutines it
	// excludes the in-process clients, so per-conn vs poller curves are
	// comparable.
	PeakSrvGoroutines int64
	// PeakFDs samples the process's open-descriptor high-water mark via
	// /proc/self/fd (0 where /proc is unavailable).
	PeakFDs    int
	FinalStats smr.Stats
	// Metrics is the server's end-of-run registry snapshot (the
	// /metrics.json point list), present only when Config.Metrics was
	// set on a client/server run.
	Metrics json.RawMessage `json:",omitempty"`
}

// String formats the result as one table row.
func (r Result) String() string {
	row := fmt.Sprintf("%-10s %-11s thr=%-4d stall=%-3d %-11s %8.3f Mops/s  avg-unreclaimed=%10.0f",
		r.Structure, r.Scheme, r.Threads, r.Stalled, r.Workload,
		r.ThroughputMops, r.AvgUnreclaimed)
	if r.Goroutines > 0 {
		row += fmt.Sprintf("  sessions(gor=%d)", r.Goroutines)
	}
	if r.BatchSize > 1 {
		row += fmt.Sprintf("  batch=%d", r.BatchSize)
	}
	if r.Conns > 0 {
		mode := "perconn"
		switch {
		case r.OOO && r.Poll:
			mode = "poll+ooo"
		case r.OOO:
			mode = "ooo"
		case r.Poll && r.Coalesce:
			mode = "poll+coalesced"
		case r.Poll:
			mode = "poll"
		case r.Coalesce:
			mode = "coalesced"
		}
		row += fmt.Sprintf("  serve(conns=%d pipe=%d %s", r.Conns, r.Pipeline, mode)
		if r.Batches > 0 {
			row += fmt.Sprintf(" ops/batch=%.1f", float64(r.Ops)/float64(r.Batches))
		}
		if r.P99 > 0 {
			row += fmt.Sprintf(" p50=%v p99=%v", r.P50, r.P99)
		}
		if r.PeakGoroutines > 0 {
			row += fmt.Sprintf(" gor=%d", r.PeakGoroutines)
		}
		if r.PeakSrvGoroutines > 0 {
			row += fmt.Sprintf(" srvgor=%d", r.PeakSrvGoroutines)
		}
		if r.PeakFDs > 0 {
			row += fmt.Sprintf(" fds=%d", r.PeakFDs)
		}
		row += ")"
	}
	if r.ValueSize > 0 {
		row += fmt.Sprintf("  bytes(valuesize=%d)", r.ValueSize)
	}
	if r.Shards > 1 {
		row += fmt.Sprintf("  shards=%d", r.Shards)
	}
	return row
}

// Run executes one benchmark configuration.
func Run(cfg Config) (Result, error) {
	cfg.fill()
	bytesMode := cfg.ValueSize > 0
	switch {
	case bytesMode && !ds.SupportsBytes(cfg.Structure, cfg.Scheme):
		return Result{}, fmt.Errorf("bench: bytes structure %s does not support scheme %s (known: %v)", cfg.Structure, cfg.Scheme, ds.BytesNames())
	case bytesMode && cfg.Workload.RangePct > 0:
		return Result{}, fmt.Errorf("bench: bytes structures have no range scans")
	case bytesMode && cfg.Conns > 0:
		return Result{}, fmt.Errorf("bench: no client/server bytes mode here; drive hyalined -bytes with hyalineload instead")
	case !bytesMode && !ds.Supports(cfg.Structure, cfg.Scheme):
		return Result{}, fmt.Errorf("bench: %s does not support scheme %s", cfg.Structure, cfg.Scheme)
	}
	if cfg.Trim && cfg.Scheme != "hyaline" && cfg.Scheme != "hyaline-1" &&
		cfg.Scheme != "hyaline-s" && cfg.Scheme != "hyaline-1s" {
		return Result{}, fmt.Errorf("bench: trim applies only to Hyaline variants, not %s", cfg.Scheme)
	}
	if cfg.Trim && cfg.Sessions {
		return Result{}, fmt.Errorf("bench: trim needs a tid held across operations; sessions lease one per operation")
	}
	if cfg.Conns > 0 {
		switch {
		case cfg.Trim || cfg.Sessions:
			return Result{}, fmt.Errorf("bench: client/server mode drives the KV front-end; -trim/-sessions do not apply")
		case cfg.Stalled > 0:
			return Result{}, fmt.Errorf("bench: client/server mode has no stalled workers (stall the schemes with figure 10a instead)")
		case cfg.Workload.RangePct > 0:
			return Result{}, fmt.Errorf("bench: the wire protocol has no range-scan op")
		case cfg.Pipeline > maxPipelineDepth:
			return Result{}, fmt.Errorf("bench: pipeline depth %d exceeds %d (a closed-loop window must fit the socket buffers)", cfg.Pipeline, maxPipelineDepth)
		}
		return runServe(cfg)
	}
	if cfg.Coalesce || cfg.Poll || cfg.OOO || cfg.Shards > 1 {
		return Result{}, fmt.Errorf("bench: Coalesce, Poll, OOO and Shards configure the server; they need Conns > 0")
	}
	total := cfg.Threads + cfg.Stalled
	tcfg := cfg.Tracker
	tcfg.MaxThreads = total
	a := takeArena(cfg.ArenaCap, bytesMode)
	defer putArena(a, bytesMode)
	tr, err := trackers.New(cfg.Scheme, a, tcfg)
	if err != nil {
		return Result{}, err
	}
	var (
		m  ds.Map
		bm ds.BytesMap
	)
	if bytesMode {
		bm, err = ds.NewBytes(cfg.Structure, a, tr, total)
	} else {
		m, err = ds.New(cfg.Structure, a, tr, total)
	}
	if err != nil {
		return Result{}, err
	}
	// Checked after New so that an unknown structure name still gets the
	// descriptive registry error instead of a range-support complaint.
	if cfg.Workload.RangePct > 0 && !ds.SupportsRange(cfg.Structure) {
		return Result{}, fmt.Errorf("bench: %s does not support range scans (ordered structures only)", cfg.Structure)
	}

	// benchVal is the shared read-only value blob for bytes runs.
	var benchVal []byte
	if bytesMode {
		benchVal = make([]byte, cfg.ValueSize)
		for i := range benchVal {
			benchVal[i] = 0xA5
		}
		prefill(tr, cfg, func(tid int, key uint64) bool {
			var kbuf [8]byte
			binary.BigEndian.PutUint64(kbuf[:], key)
			return bm.Insert(tid, kbuf[:], benchVal)
		})
	} else {
		prefill(tr, cfg, func(tid int, key uint64) bool { return m.Insert(tid, key, key*31+7) })
	}

	// In session mode, workers lease tids per operation instead of
	// owning one; there may be more workers than tids.
	workers := cfg.Threads
	var pool *session.Pool
	if cfg.Sessions {
		workers = cfg.Goroutines
		pool = session.NewPool(tr, total)
	}
	counters := total
	if workers > counters {
		counters = workers
	}

	var (
		stop      atomic.Bool
		started   sync.WaitGroup
		done      sync.WaitGroup
		release   = make(chan struct{})
		opCount   = make([]paddedCounter, counters)
		scanCount = make([]paddedCounter, counters)
	)

	// Stalled workers: enter, dereference the structure once (so
	// era-based schemes cover live nodes), then freeze until the end.
	// In session mode they hold a leased session for the whole run,
	// shrinking the tid supply the active goroutines share.
	stallWoken := make(chan struct{})
	var stallOnce sync.Once
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
			if bytesMode {
				var kbuf [8]byte
				binary.BigEndian.PutUint64(kbuf[:], uint64(tid)%cfg.KeyRange)
				bm.Get(tid, kbuf[:], nil)
			} else {
				m.Get(tid, uint64(tid)%cfg.KeyRange)
			}
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
			var ranger ds.Ranger
			if !bytesMode {
				ranger, _ = m.(ds.Ranger)
			}
			// Bytes-run scratch: key encode buffer and a reused Get
			// destination, so the measured loop stays allocation-free.
			var kbuf [8]byte
			var dst []byte
			var scanned int64 // keeps the scan body from being a no-op
			tid := w
			batch := cfg.BatchSize
			if cfg.Trim {
				tr.Enter(tid)
			}
			ops := int64(0)
			// Each loop iteration is one batch: one lease and one
			// Enter/Leave bracket cover batch operations (with batch == 1
			// this is the classic per-op bracket). Trim mode keeps its
			// run-long bracket and trims once per batch instead of per op.
			for !stop.Load() {
				var s *session.Session
				if pool != nil {
					s = pool.Acquire()
					tid = s.Tid()
				}
				if !cfg.Trim {
					tr.Enter(tid)
				}
				for b := 0; b < batch; b++ {
					if b > 0 && b%session.BatchChunk == 0 {
						// A huge batch must not overshoot the measurement
						// window by more than one chunk.
						if stop.Load() {
							break
						}
						// Re-arm mid-batch so reclamation is never starved.
						if trimmer != nil {
							trimmer.Trim(tid)
						} else {
							tr.Leave(tid)
							tr.Enter(tid)
						}
					}
					key := uint64(rng.Int63n(int64(cfg.KeyRange)))
					mix := rng.Intn(100)
					if bytesMode {
						binary.BigEndian.PutUint64(kbuf[:], key)
						switch {
						case mix < cfg.Workload.InsertPct:
							bm.Insert(tid, kbuf[:], benchVal)
						case mix < cfg.Workload.InsertPct+cfg.Workload.DeletePct:
							bm.Delete(tid, kbuf[:])
						default:
							dst, _ = bm.Get(tid, kbuf[:], dst[:0])
						}
						ops++
						continue
					}
					switch {
					case mix < cfg.Workload.InsertPct:
						m.Insert(tid, key, key*31+7)
					case mix < cfg.Workload.InsertPct+cfg.Workload.DeletePct:
						m.Delete(tid, key)
					case mix < cfg.Workload.InsertPct+cfg.Workload.DeletePct+cfg.Workload.RangePct:
						ranger.Range(tid, key, key+cfg.RangeSpan, func(_, _ uint64) bool {
							scanned++
							return true
						})
					default:
						m.Get(tid, key)
					}
					ops++
				}
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
			scanCount[w].v.Store(scanned)
		}(w)
	}

	started.Wait()
	start := time.Now()
	close(release)

	var un unreclaimed
	sampleFor(cfg.Duration, nil, func() { un.observe(tr.Stats().Unreclaimed()) })
	stop.Store(true)
	stallOnce.Do(func() { close(stallWoken) })
	done.Wait()
	elapsed := time.Since(start)

	var ops, scannedKeys int64
	for i := range opCount {
		ops += opCount[i].v.Load()
		scannedKeys += scanCount[i].v.Load()
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
		BatchSize:      cfg.BatchSize,
		ValueSize:      cfg.ValueSize,
		Shards:         1,
		Workload:       cfg.Workload.Name(),
		Duration:       elapsed,
		Ops:            ops,
		ScannedKeys:    scannedKeys,
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
// window has elapsed or abort is closed (nil = never).
func sampleFor(window time.Duration, abort <-chan struct{}, observe func()) {
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	deadline := time.After(window)
	for {
		select {
		case <-ticker.C:
			observe()
		case <-abort:
			return
		case <-deadline:
			return
		}
	}
}

// arenaCache recycles the (huge, mostly virtual) node pools between
// sequential runs. A fresh arena is cheap to map at any size, but
// reuse still buys two things: the pages the last run touched stay
// resident, so the next run does not fault them in again, and a point
// never runs beside the previous point's arena while that one waits for
// the garbage collector to unmap it. Arena.Reset zeroes only the touched
// region. There is one pool per payload family (keyed by bytesMode),
// because blobs can only be enabled once per arena and a blob-enabled
// arena must never serve a uint64 run (its Free decodes Key/Val as blob
// refs).
var arenaCache = struct {
	mu     sync.Mutex
	arenas map[bool]*arena.Arena
}{arenas: map[bool]*arena.Arena{}}

func takeArena(capacity int, bytesMode bool) *arena.Arena {
	arenaCache.mu.Lock()
	defer arenaCache.mu.Unlock()
	if a := arenaCache.arenas[bytesMode]; a != nil && a.Cap() == capacity {
		delete(arenaCache.arenas, bytesMode)
		a.Reset()
		return a
	}
	a := arena.New(capacity)
	if bytesMode {
		a.EnableBlobs(blobClassBudget)
	}
	return a
}

func putArena(a *arena.Arena, bytesMode bool) {
	arenaCache.mu.Lock()
	defer arenaCache.mu.Unlock()
	arenaCache.arenas[bytesMode] = a
}

// prefill inserts cfg.Prefill distinct random keys through insert (the
// run's payload family), spreading the work over a handful of goroutines
// (the structure is concurrent, after all).
func prefill(tr smr.Tracker, cfg Config, insert func(tid int, key uint64) bool) {
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
				if insert(tid, key) {
					inserted.Add(1)
				}
				tr.Leave(tid)
			}
		}(w)
	}
	wg.Wait()
}
