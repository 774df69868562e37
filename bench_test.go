// bench_test.go runs the paper's evaluation as Go benchmarks, straight
// from the figure table in internal/bench: one sub-benchmark per curve
// and x value, a fixed wall-clock window per iteration, reporting Mops
// (million operations/second) and unreclaimed (the time-averaged
// retired-but-not-freed node count). The paper's numbers came from a
// 72-core Xeon; only the curve shapes are expected to transfer. For the
// full sweeps use `hyalinebench -figure all`; for a performance claim
// use benchmark/ (README, "Measuring").
package hyaline_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"hyaline/internal/arena"
	"hyaline/internal/bench"
	"hyaline/internal/trackers"
)

// benchWindow is the measurement window per benchmark iteration. Keep it
// short: `go test -bench` scales iteration counts itself.
const benchWindow = 50 * time.Millisecond

// Table 1 — qualitative comparison; the "benchmark" checks the property
// table is constant-time to produce and stable.
func BenchmarkTable1Properties(b *testing.B) {
	a := arena.New(64)
	for _, name := range trackers.Names() {
		tr, err := trackers.New(name, a, trackers.Config{MaxThreads: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if p := tr.Properties(); p.Scheme == "" {
					b.Fatal("empty properties")
				}
			}
		})
	}
}

// BenchmarkFigures walks bench.AllFigures, all of them in-process sweeps:
// each curve at the core count and oversubscribed (stalled sweeps: one
// stalled thread and half the cores). A point is Figure.Run on a
// one-curve, one-x copy of the figure, so the curve→Config mapping is
// the CLI's. Every point reports both metrics, so an unreclaimed figure
// that reruns a throughput figure's sweep (9, 12) is skipped.
func BenchmarkFigures(b *testing.B) {
	cores := runtime.GOMAXPROCS(0)
	sweeps := map[string][]int{
		"threads": {cores, 2 * cores},
		"stalled": {1, cores / 2},
	}
	ran := map[string]bool{}
	for _, f := range bench.AllFigures() {
		xs, runs := sweeps[f.Sweep], fmt.Sprint(f.Structure, f.Workload, f.Sweep, f.Curves)
		if f.Metric == "unreclaimed" && ran[runs] {
			continue
		}
		ran[runs] = true
		for _, c := range f.Curves {
			for _, x := range xs {
				one := f
				one.Curves = []bench.Curve{c}
				b.Run(fmt.Sprintf("%s/%s/%s=%d", f.ID, c.Label, f.Sweep, x), func(b *testing.B) {
					var tab bench.Table
					for i := 0; i < b.N; i++ {
						var err error
						tab, err = one.Run(bench.RunOptions{
							Duration: benchWindow, Xs: []int{x}, ActiveThreads: cores,
							Prefill: 10_000, KeyRange: 20_000,
						})
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(tab.Raw[0].ThroughputMops, "Mops")
					b.ReportMetric(tab.Raw[0].AvgUnreclaimed, "unreclaimed")
					b.ReportMetric(0, "ns/op") // wall-clock window is fixed; ns/op is meaningless
				})
			}
		}
	}
}
