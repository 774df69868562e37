// figures.go defines one runnable specification per table and figure of
// the paper's evaluation, so that `hyalinebench -figure <id>` (and the
// root benchmark suite) regenerates the same rows and series the paper
// reports.
//
// Figures 8/9 (write-heavy) and 11/12 (read-mostly) share their sweeps:
// a throughput figure and its unreclaimed-objects companion are the same
// runs reported under two metrics. The paper's Figures 13–16 rerun the
// same experiments on PowerPC's LL/SC; this port has one packed-word CAS
// and no LL/SC path to substitute, so they are not reproduced.
package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"hyaline/internal/ds"
	"hyaline/internal/trackers"
)

// Curve is one line of a figure: a scheme plus its configuration quirks.
type Curve struct {
	// Label names the series as in the paper's legend.
	Label string
	// Scheme is the tracker name.
	Scheme string
	// Trim runs the Hyaline trim mode (§3.3).
	Trim bool
	// Slots caps Hyaline's k (0 = default).
	Slots int
	// Resize enables Hyaline-S adaptive resizing.
	Resize bool
	// Sessions drives this curve through the leased-tid session layer.
	Sessions bool
	// Batch groups operations into brackets of this size (0/1 =
	// singleton; see Config.BatchSize).
	Batch int
	// Pipeline is the per-connection in-flight request depth for the
	// client/server figures (sweep "conns"); 0 elsewhere.
	Pipeline int
	// Coalesce runs this curve's server with cross-connection apply
	// coalescing (sweep "conns" only).
	Coalesce bool
	// Poll parks this curve's idle connections in the readiness poller
	// (sweep "conns" only; needs a poller backend).
	Poll bool
	// OOO completes this curve's replies out of order on seq-framed
	// connections; implies Coalesce (sweep "conns" only).
	OOO bool
	// Structure overrides the figure's structure for this curve (empty =
	// inherit). The payload-comparison figures use it to put the uint64
	// structure and its bytes twin on the same axes.
	Structure string
	// ValueSize switches this curve to the bytes payload path with
	// values of this size (see Config.ValueSize); 0 = uint64 payloads.
	ValueSize int
}

// Figure is a runnable experiment specification.
type Figure struct {
	// ID is the paper's figure/table number, e.g. "8a", "10b".
	ID string
	// Caption summarizes the experiment.
	Caption string
	// Structure is the benchmark data structure.
	Structure string
	// Workload is the operation mix.
	Workload Workload
	// Metric selects what the figure plots: "throughput" (Mops/s) or
	// "unreclaimed" (average retired-but-not-freed objects).
	Metric string
	// Sweep is the x-axis: "threads", "stalled" or "conns" (client/
	// server mode: x is the loopback connection count).
	Sweep string
	// Xs overrides the sweep's default x values for this figure (the
	// explicit RunOptions.Xs still wins). Figures whose interesting
	// regime is not the default sweep — figure 25's march toward
	// thousands of connections — pin their points here.
	Xs []int
	// Curves lists the series.
	Curves []Curve
}

// standardCurves returns the paper's scheme line-up for a structure
// (Bonsai omits HP and HE, as in the paper).
func standardCurves(structure string) []Curve {
	var curves []Curve
	for _, s := range []string{
		"leaky", "epoch", "hyaline", "hyaline-1", "hyaline-s", "hyaline-1s", "ibr", "he", "hp",
	} {
		if !ds.Supports(structure, s) {
			continue
		}
		curves = append(curves, Curve{Label: s, Scheme: s})
	}
	return curves
}

// fig10aSlots is the slot count the capped and resizing Hyaline-S curves
// of Figure 10a start from: fewer slots than threads, so stalled threads
// share slots with running ones.
const fig10aSlots = 2

// AllFigures lists every reproducible table/figure in paper order.
func AllFigures() []Figure {
	var figs []Figure
	// Suffixes a–d are the paper's four structures; "e" is the skiplist
	// workload this reproduction adds (same sweeps, same metrics).
	structures := []struct{ suffix, name string }{
		{"a", "list"}, {"b", "bonsai"}, {"c", "hashmap"}, {"d", "natarajan"},
		{"e", "skiplist"},
	}
	add := func(num, metric string, wl Workload) {
		for _, s := range structures {
			figs = append(figs, Figure{
				ID: num + s.suffix,
				Caption: fmt.Sprintf("x86-64: %s %s, %s workload",
					s.name, metric, wl.Name()),
				Structure: s.name,
				Workload:  wl,
				Metric:    metric,
				Sweep:     "threads",
				Curves:    standardCurves(s.name),
			})
		}
	}
	add("8", "throughput", WriteHeavy)
	add("9", "unreclaimed", WriteHeavy)

	figs = append(figs, Figure{
		ID:        "10a",
		Caption:   "robustness: unreclaimed objects vs stalled threads (hashmap, write-heavy)",
		Structure: "hashmap",
		Workload:  WriteHeavy,
		Metric:    "unreclaimed",
		Sweep:     "stalled",
		Curves: []Curve{
			{Label: "hyaline", Scheme: "hyaline"},
			{Label: "hyaline-1", Scheme: "hyaline-1"},
			// Hyaline-S defaults to a slot per thread, where nothing is
			// shared and nothing needs to grow. The paper's capped/resize
			// pair is about stalled threads sharing slots with running
			// ones, so both start from the same explicit small k.
			{Label: "hyaline-s", Scheme: "hyaline-s"},
			{Label: "hyaline-s(capped)", Scheme: "hyaline-s", Slots: fig10aSlots},
			{Label: "hyaline-s(resize)", Scheme: "hyaline-s", Slots: fig10aSlots, Resize: true},
			{Label: "hyaline-1s", Scheme: "hyaline-1s"},
			{Label: "epoch", Scheme: "epoch"},
			{Label: "ibr", Scheme: "ibr"},
			{Label: "he", Scheme: "he"},
			{Label: "hp", Scheme: "hp"},
		},
	}, Figure{
		ID:        "10b",
		Caption:   "trimming: throughput with k ≤ 32 slots (hashmap, write-heavy)",
		Structure: "hashmap",
		Workload:  WriteHeavy,
		Metric:    "throughput",
		Sweep:     "threads",
		Curves: []Curve{
			{Label: "hyaline(trim)", Scheme: "hyaline", Trim: true, Slots: 32},
			{Label: "hyaline-s(trim)", Scheme: "hyaline-s", Trim: true, Slots: 32},
			{Label: "hyaline", Scheme: "hyaline", Slots: 32},
			{Label: "hyaline-s", Scheme: "hyaline-s", Slots: 32},
		},
	})

	add("11", "throughput", ReadMostly)
	add("12", "unreclaimed", ReadMostly)
	// Figures 17/18 are reproduction extensions beyond the paper: the
	// scan-mix workload over the ordered structures (ds.SupportsRange).
	// Range scans pin long chains of nodes for the whole traversal, so
	// these rows are where the schemes' unreclaimed-garbage behaviour
	// diverges most.
	addScan := func(num, metric string) {
		for _, s := range structures {
			if !ds.SupportsRange(s.name) {
				continue
			}
			figs = append(figs, Figure{
				ID: num + s.suffix,
				Caption: fmt.Sprintf("x86-64: %s %s, %s workload (reproduction extension)",
					s.name, metric, ScanMix.Name()),
				Structure: s.name,
				Workload:  ScanMix,
				Metric:    metric,
				Sweep:     "threads",
				Curves:    standardCurves(s.name),
			})
		}
	}
	addScan("17", "throughput")
	addScan("18", "unreclaimed")
	// Figures 19/20 are reproduction extensions: batched operations
	// through the session layer. One lease + one Enter/Leave bracket per
	// batch amortizes the per-op session cost (figure 19, throughput);
	// the per-chunk trim keeps retired garbage bounded even with big
	// batches (figure 20, unreclaimed).
	batchCurves := []Curve{
		{Label: "hyaline-singleton", Scheme: "hyaline", Sessions: true, Batch: 1},
		{Label: "hyaline-batch16", Scheme: "hyaline", Sessions: true, Batch: 16},
		{Label: "hyaline-batch64", Scheme: "hyaline", Sessions: true, Batch: 64},
		{Label: "hyaline-batch256", Scheme: "hyaline", Sessions: true, Batch: 256},
		{Label: "epoch-singleton", Scheme: "epoch", Sessions: true, Batch: 1},
		{Label: "epoch-batch64", Scheme: "epoch", Sessions: true, Batch: 64},
	}
	figs = append(figs, Figure{
		ID:        "19",
		Caption:   "x86-64: hashmap throughput, batched vs singleton leased operations (reproduction extension)",
		Structure: "hashmap",
		Workload:  WriteHeavy,
		Metric:    "throughput",
		Sweep:     "threads",
		Curves:    batchCurves,
	}, Figure{
		ID:        "20",
		Caption:   "x86-64: hashmap unreclaimed objects, batched vs singleton leased operations (reproduction extension)",
		Structure: "hashmap",
		Workload:  WriteHeavy,
		Metric:    "unreclaimed",
		Sweep:     "threads",
		Curves:    batchCurves,
	})
	// Figures 21/22 are reproduction extensions: the network serving
	// layer (internal/server). Closed-loop loopback connections drive the
	// KV through the wire protocol; pipelined curves coalesce each
	// connection's in-flight window into one Apply batch, singleton
	// curves pay a full round trip and a full bracket per op.
	var serveCurves []Curve
	for _, s := range []string{"hyaline", "epoch", "ibr", "hp"} {
		serveCurves = append(serveCurves,
			Curve{Label: s + "-pipe1", Scheme: s, Pipeline: 1},
			Curve{Label: s + "-pipe16", Scheme: s, Pipeline: 16},
		)
	}
	figs = append(figs, Figure{
		ID:        "21",
		Caption:   "x86-64: hashmap served throughput, pipelined vs singleton connections (reproduction extension)",
		Structure: "hashmap",
		Workload:  WriteHeavy,
		Metric:    "throughput",
		Sweep:     "conns",
		Curves:    serveCurves,
	}, Figure{
		ID:        "22",
		Caption:   "x86-64: hashmap unreclaimed objects under served load, pipelined vs singleton connections (reproduction extension)",
		Structure: "hashmap",
		Workload:  WriteHeavy,
		Metric:    "unreclaimed",
		Sweep:     "conns",
		Curves:    serveCurves,
	})
	// Figures 23/24 are reproduction extensions: uint64 vs bytes
	// payloads. The same sorted-list protocol runs with uint64 payloads
	// ("list") and with []byte keys/values in blob slabs ("blist"), so
	// the gap between curves is the cost of variable-size payloads —
	// key encode/compare, blob alloc/copy — not a structure change.
	// Figure 23 is the per-operation Get-heavy view; figure 24 drives
	// the same comparison through batched leased brackets (the
	// measurement analogue of Apply/ApplyBytes).
	payloadCurves := func(batch int) []Curve {
		var curves []Curve
		for _, s := range []string{"hyaline", "epoch"} {
			curves = append(curves,
				Curve{Label: s + "-u64", Scheme: s, Sessions: batch > 1, Batch: batch},
				Curve{Label: s + "-16B", Scheme: s, Structure: "blist", ValueSize: 16, Sessions: batch > 1, Batch: batch},
				Curve{Label: s + "-128B", Scheme: s, Structure: "blist", ValueSize: 128, Sessions: batch > 1, Batch: batch},
				Curve{Label: s + "-1KiB", Scheme: s, Structure: "blist", ValueSize: 1024, Sessions: batch > 1, Batch: batch},
			)
		}
		return curves
	}
	figs = append(figs, Figure{
		ID:        "23",
		Caption:   "x86-64: list Get throughput, uint64 vs bytes payloads (reproduction extension)",
		Structure: "list",
		Workload:  ReadMostly,
		Metric:    "throughput",
		Sweep:     "threads",
		Curves:    payloadCurves(1),
	}, Figure{
		ID:        "24",
		Caption:   "x86-64: list batched-apply throughput, uint64 vs bytes payloads (reproduction extension)",
		Structure: "list",
		Workload:  WriteHeavy,
		Metric:    "throughput",
		Sweep:     "threads",
		Curves:    payloadCurves(64),
	})
	// Figure 25 is a reproduction extension: cross-connection apply
	// coalescing. Every connection is a singleton-pipeline client — the
	// worst case for per-connection batching, since each op pays a full
	// session bracket — swept toward thousands of connections. The
	// coalesced curves merge those singleton runs into shared kv.Apply
	// batches under the 50µs default window; the per-connection curves
	// are the PR-5 baseline. Results carry ops/batch, p99 round-trip
	// latency and the goroutine high-water mark (2 server goroutines per
	// connection), so the table shows what coalescing buys and what the
	// goroutine-pair model costs at the 1k–4k scale the ROADMAP's
	// event-driven-poller item targets.
	var coalesceCurves []Curve
	for _, s := range []string{"hyaline", "epoch"} {
		coalesceCurves = append(coalesceCurves,
			Curve{Label: s + "-perconn", Scheme: s, Pipeline: 1},
			Curve{Label: s + "-coalesced", Scheme: s, Pipeline: 1, Coalesce: true},
		)
	}
	figs = append(figs, Figure{
		ID:        "25",
		Caption:   "x86-64: hashmap served throughput from singleton-pipeline connections, per-connection vs coalesced apply (reproduction extension)",
		Structure: "hashmap",
		Workload:  WriteHeavy,
		Metric:    "throughput",
		Sweep:     "conns",
		Xs:        []int{1, 8, 64, 256, 1024, 4096},
		Curves:    coalesceCurves,
	})
	// Figure 27 is a reproduction extension: what the serving model
	// itself costs at connection scale. Three curves over the same
	// write-heavy hashmap, swept from 1k to 10k mostly-idle
	// singleton-pipeline connections: the PR-5 goroutine-per-connection
	// baseline, the readiness poller (idle conns park their fds in
	// epoll/kqueue, a bounded worker pool services the readable ones),
	// and the poller with out-of-order reply completion on top of
	// coalesced apply. The gauge is Result.PeakSrvGoroutines — the
	// server-only goroutine high-water mark, which must grow O(conns) for
	// the baseline and stay O(workers) for the polled curves — plus
	// PeakFDs for the descriptor bill the goroutines no longer hide.
	figs = append(figs, Figure{
		ID:        "27",
		Caption:   "x86-64: hashmap served throughput and server goroutine high-water vs connection count, goroutine-per-conn vs readiness poller vs poller+OOO (reproduction extension)",
		Structure: "hashmap",
		Workload:  WriteHeavy,
		Metric:    "throughput",
		Sweep:     "conns",
		Xs:        []int{1000, 2500, 5000, 10000},
		Curves: []Curve{
			{Label: "hyaline-perconn", Scheme: "hyaline", Pipeline: 1},
			{Label: "hyaline-poll", Scheme: "hyaline", Pipeline: 1, Poll: true},
			{Label: "hyaline-poll-ooo", Scheme: "hyaline", Pipeline: 1, Poll: true, OOO: true, Coalesce: true},
		},
	})
	return figs
}

// FigureByID finds a figure spec.
func FigureByID(id string) (Figure, error) {
	for _, f := range AllFigures() {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("bench: unknown figure %q", id)
}

// RunOptions tunes a figure sweep.
type RunOptions struct {
	// Duration per data point. Default 1s (the paper uses 10s).
	Duration time.Duration
	// Xs overrides the sweep points (thread counts or stalled counts).
	Xs []int
	// ActiveThreads fixes the worker count for stalled sweeps
	// (default GOMAXPROCS; the paper uses all 72 cores).
	ActiveThreads int
	// Prefill and KeyRange override the paper's 50k/100k.
	Prefill  int
	KeyRange uint64
	// Progress, when non-nil, receives one line per completed point.
	Progress func(string)
}

// DefaultThreadSweep spans 1 to 2×GOMAXPROCS, so that the oversubscribed
// regime the paper highlights (beyond the core count) is always covered.
func DefaultThreadSweep() []int {
	c := runtime.GOMAXPROCS(0)
	xs := []int{1, c / 4, c / 2, 3 * c / 4, c, c + c/4, 3 * c / 2, 2 * c}
	uniq := map[int]bool{}
	var out []int
	for _, x := range xs {
		if x >= 1 && !uniq[x] {
			uniq[x] = true
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}

// DefaultConnSweep spans 1 to 4×GOMAXPROCS connections in powers of two:
// each connection is a goroutine pair server-side, so the top of the
// sweep oversubscribes goroutines, connections and leased tids at once.
func DefaultConnSweep() []int {
	top := 4 * runtime.GOMAXPROCS(0)
	var out []int
	for x := 1; x <= top; x *= 2 {
		out = append(out, x)
	}
	if out[len(out)-1] != top {
		out = append(out, top) // pin the 4x endpoint on non-pow2 core counts
	}
	return out
}

// DefaultStallSweep spans 0 to the active thread count.
func DefaultStallSweep(active int) []int {
	xs := []int{0, 1, active / 8, active / 4, active / 2, 3 * active / 4, active}
	uniq := map[int]bool{}
	var out []int
	for _, x := range xs {
		if x >= 0 && !uniq[x] {
			uniq[x] = true
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}

// Table is a completed figure: x-axis values and one series per curve.
type Table struct {
	Figure Figure
	Xs     []int
	// Series holds the plotted metric per curve label, indexed like Xs.
	Series map[string][]float64
	// Raw keeps every underlying result, in curve-major order.
	Raw []Result
}

// Run executes the figure's sweep.
func (f Figure) Run(opts RunOptions) (Table, error) {
	if opts.Duration == 0 {
		opts.Duration = time.Second
	}
	if opts.ActiveThreads == 0 {
		// Leave two hardware threads for the sampler and the runtime:
		// robustness sweeps must measure stall pinning, not the garbage
		// that ambient goroutine preemption pins when every hardware
		// thread is occupied (the paper's testbed pins threads to cores).
		opts.ActiveThreads = runtime.GOMAXPROCS(0) - 2
		if opts.ActiveThreads < 1 {
			opts.ActiveThreads = 1
		}
	}
	xs := opts.Xs
	if len(xs) == 0 {
		xs = f.Xs
	}
	if len(xs) == 0 {
		switch f.Sweep {
		case "stalled":
			xs = DefaultStallSweep(opts.ActiveThreads)
		case "conns":
			xs = DefaultConnSweep()
		default:
			xs = DefaultThreadSweep()
		}
	}
	tab := Table{Figure: f, Xs: xs, Series: map[string][]float64{}}
	for _, curve := range f.Curves {
		series := make([]float64, 0, len(xs))
		for _, x := range xs {
			cfg := Config{
				Structure: f.Structure,
				Scheme:    curve.Scheme,
				Workload:  f.Workload,
				Duration:  opts.Duration,
				Trim:      curve.Trim,
				Sessions:  curve.Sessions,
				BatchSize: curve.Batch,
				ValueSize: curve.ValueSize,
				Prefill:   opts.Prefill,
				KeyRange:  opts.KeyRange,
				Tracker: trackers.Config{
					Slots:  curve.Slots,
					Resize: curve.Resize,
				},
			}
			if curve.Structure != "" {
				cfg.Structure = curve.Structure
			}
			switch f.Sweep {
			case "stalled":
				cfg.Threads = opts.ActiveThreads
				cfg.Stalled = x
			case "conns":
				cfg.Threads = opts.ActiveThreads
				cfg.Conns = x
				cfg.Pipeline = curve.Pipeline
				cfg.Coalesce = curve.Coalesce
				cfg.Poll = curve.Poll
				cfg.OOO = curve.OOO
			default:
				cfg.Threads = x
			}
			res, err := Run(cfg)
			if err != nil {
				return Table{}, fmt.Errorf("figure %s curve %s x=%d: %w", f.ID, curve.Label, x, err)
			}
			v := res.ThroughputMops
			if f.Metric == "unreclaimed" {
				v = res.AvgUnreclaimed
			}
			series = append(series, v)
			tab.Raw = append(tab.Raw, res)
			if opts.Progress != nil {
				opts.Progress(fmt.Sprintf("fig %s  %-18s %s", f.ID, curve.Label, res))
			}
		}
		tab.Series[curve.Label] = series
	}
	return tab, nil
}

// CSV renders the table with one row per x value.
func (t Table) CSV() string {
	var b strings.Builder
	labels := make([]string, 0, len(t.Series))
	for _, c := range t.Figure.Curves {
		labels = append(labels, c.Label)
	}
	xName := "threads"
	switch t.Figure.Sweep {
	case "stalled":
		xName = "stalled"
	case "conns":
		xName = "conns"
	}
	fmt.Fprintf(&b, "# figure %s: %s (metric: %s)\n", t.Figure.ID, t.Figure.Caption, t.Figure.Metric)
	fmt.Fprintf(&b, "%s,%s\n", xName, strings.Join(labels, ","))
	for i, x := range t.Xs {
		row := make([]string, 0, len(labels)+1)
		row = append(row, fmt.Sprintf("%d", x))
		for _, l := range labels {
			row = append(row, fmt.Sprintf("%.4f", t.Series[l][i]))
		}
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
