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
	// Sweep is the x-axis: "threads" or "stalled".
	Sweep string
	// Curves lists the series.
	Curves []Curve
}

// axis names the sweep's x-axis: "stalled", or "threads" for any other
// Sweep value.
func (f Figure) axis() string {
	if f.Sweep == "stalled" {
		return "stalled"
	}
	return "threads"
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
	// (default GOMAXPROCS-2, at least 1; the paper uses all 72 cores).
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
		if f.Sweep == "stalled" {
			xs = DefaultStallSweep(opts.ActiveThreads)
		} else {
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
				Prefill:   opts.Prefill,
				KeyRange:  opts.KeyRange,
				Tracker: trackers.Config{
					Slots:  curve.Slots,
					Resize: curve.Resize,
				},
			}
			if f.Sweep == "stalled" {
				cfg.Threads = opts.ActiveThreads
				cfg.Stalled = x
			} else {
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
	fmt.Fprintf(&b, "# figure %s: %s (metric: %s)\n", t.Figure.ID, t.Figure.Caption, t.Figure.Metric)
	fmt.Fprintf(&b, "%s,%s\n", t.Figure.axis(), strings.Join(labels, ","))
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
