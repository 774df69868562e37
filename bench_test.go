// bench_test.go regenerates the paper's evaluation as Go benchmarks —
// one benchmark family per table/figure. Each sub-benchmark runs the
// harness for a fixed wall-clock window per iteration and reports:
//
//	Mops       — throughput in million operations/second (Figures 8,
//	             10b, 11, 13, 15)
//	unreclaimed — the time-averaged retired-but-not-freed node count
//	             (Figures 9, 10a, 12, 14, 16)
//
// The paper's absolute numbers came from a 72-core 4-socket Xeon and a
// 64-thread POWER box; only the curve shapes are expected to transfer.
// For the full sweeps (all thread counts, CSV output) use:
//
//	go run ./cmd/hyalinebench -figure all
//
// Figures 13–16 (PowerPC) alias the x86 experiments: Go has no LL/SC,
// and the packed-word CAS plays the role of §4.4's single-width LL/SC
// emulation (see EXPERIMENTS.md).
package hyaline_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"hyaline/internal/arena"
	"hyaline/internal/bench"
	"hyaline/internal/ds"
	"hyaline/internal/trackers"
)

// benchWindow is the measurement window per benchmark iteration. Keep it
// short: `go test -bench` scales iteration counts itself.
const benchWindow = 50 * time.Millisecond

// benchSchemes is the figure line-up (Leaky excluded from the default
// benchmark matrix to keep -bench=. bounded; hyalinebench runs it).
var benchSchemes = []string{
	"epoch", "hyaline", "hyaline-1", "hyaline-s", "hyaline-1s", "ibr", "he", "hp",
}

func benchPoint(b *testing.B, cfg bench.Config) {
	b.Helper()
	cfg.Duration = benchWindow
	cfg.Prefill = 10_000
	cfg.KeyRange = 20_000
	var last bench.Result
	for i := 0; i < b.N; i++ {
		res, err := bench.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.ThroughputMops, "Mops")
	b.ReportMetric(last.AvgUnreclaimed, "unreclaimed")
	b.ReportMetric(0, "ns/op") // wall-clock window is fixed; ns/op is meaningless
}

// throughputFigure runs one Figure 8/11/13/15-style family: every scheme
// at the core count and oversubscribed (2×cores).
func throughputFigure(b *testing.B, structure string, wl bench.Workload) {
	cores := runtime.GOMAXPROCS(0)
	for _, scheme := range benchSchemes {
		if !ds.Supports(structure, scheme) {
			continue
		}
		for _, threads := range []int{cores, 2 * cores} {
			b.Run(fmt.Sprintf("%s/threads=%d", scheme, threads), func(b *testing.B) {
				benchPoint(b, bench.Config{
					Structure: structure, Scheme: scheme,
					Threads: threads, Workload: wl,
				})
			})
		}
	}
}

// unreclaimedFigure runs one Figure 9/12/14/16-style family at the core
// count (the unreclaimed metric is reported by every benchmark anyway).
func unreclaimedFigure(b *testing.B, structure string, wl bench.Workload) {
	cores := runtime.GOMAXPROCS(0)
	for _, scheme := range benchSchemes {
		if !ds.Supports(structure, scheme) {
			continue
		}
		b.Run(scheme, func(b *testing.B) {
			benchPoint(b, bench.Config{
				Structure: structure, Scheme: scheme,
				Threads: cores, Workload: wl,
			})
		})
	}
}

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

// Figure 8: throughput, write-intensive (50% insert / 50% delete).
// Row "e" is the skiplist workload added on top of the paper's four.
func BenchmarkFig8aList(b *testing.B)      { throughputFigure(b, "list", bench.WriteHeavy) }
func BenchmarkFig8bBonsai(b *testing.B)    { throughputFigure(b, "bonsai", bench.WriteHeavy) }
func BenchmarkFig8cHashMap(b *testing.B)   { throughputFigure(b, "hashmap", bench.WriteHeavy) }
func BenchmarkFig8dNatarajan(b *testing.B) { throughputFigure(b, "natarajan", bench.WriteHeavy) }
func BenchmarkFig8eSkipList(b *testing.B)  { throughputFigure(b, "skiplist", bench.WriteHeavy) }

// Figure 9: unreclaimed objects, write-intensive.
func BenchmarkFig9aList(b *testing.B)      { unreclaimedFigure(b, "list", bench.WriteHeavy) }
func BenchmarkFig9bBonsai(b *testing.B)    { unreclaimedFigure(b, "bonsai", bench.WriteHeavy) }
func BenchmarkFig9cHashMap(b *testing.B)   { unreclaimedFigure(b, "hashmap", bench.WriteHeavy) }
func BenchmarkFig9dNatarajan(b *testing.B) { unreclaimedFigure(b, "natarajan", bench.WriteHeavy) }
func BenchmarkFig9eSkipList(b *testing.B)  { unreclaimedFigure(b, "skiplist", bench.WriteHeavy) }

// Figure 10a: robustness — unreclaimed objects with stalled threads.
func BenchmarkFig10aRobustness(b *testing.B) {
	cores := runtime.GOMAXPROCS(0)
	curves := []struct {
		label  string
		scheme string
		slots  int
		resize bool
	}{
		{"epoch", "epoch", 0, false},
		{"hyaline", "hyaline", 0, false},
		{"hyaline-s", "hyaline-s", 0, false},
		{"hyaline-s-capped", "hyaline-s", bench.Fig10aSlots, false},
		{"hyaline-s-resize", "hyaline-s", bench.Fig10aSlots, true},
		{"hyaline-1s", "hyaline-1s", 0, false},
		{"ibr", "ibr", 0, false},
		{"hp", "hp", 0, false},
	}
	for _, c := range curves {
		for _, stalled := range []int{1, cores / 2} {
			b.Run(fmt.Sprintf("%s/stalled=%d", c.label, stalled), func(b *testing.B) {
				benchPoint(b, bench.Config{
					Structure: "hashmap", Scheme: c.scheme,
					Threads: cores, Stalled: stalled,
					Workload: bench.WriteHeavy,
					Tracker:  trackers.Config{Slots: c.slots, Resize: c.resize},
				})
			})
		}
	}
}

// Figure 10b: trimming with a small slot cap (k ≤ 32).
func BenchmarkFig10bTrim(b *testing.B) {
	cores := runtime.GOMAXPROCS(0)
	for _, scheme := range []string{"hyaline", "hyaline-s"} {
		for _, trim := range []bool{false, true} {
			name := scheme
			if trim {
				name += "-trim"
			}
			b.Run(name, func(b *testing.B) {
				benchPoint(b, bench.Config{
					Structure: "hashmap", Scheme: scheme,
					Threads: cores, Trim: trim,
					Workload: bench.WriteHeavy,
					Tracker:  trackers.Config{Slots: 32},
				})
			})
		}
	}
}

// Figures 11/12: read-mostly (90% get / 10% put) on x86.
func BenchmarkFig11aList(b *testing.B)      { throughputFigure(b, "list", bench.ReadMostly) }
func BenchmarkFig11bBonsai(b *testing.B)    { throughputFigure(b, "bonsai", bench.ReadMostly) }
func BenchmarkFig11cHashMap(b *testing.B)   { throughputFigure(b, "hashmap", bench.ReadMostly) }
func BenchmarkFig11dNatarajan(b *testing.B) { throughputFigure(b, "natarajan", bench.ReadMostly) }
func BenchmarkFig11eSkipList(b *testing.B)  { throughputFigure(b, "skiplist", bench.ReadMostly) }

func BenchmarkFig12aList(b *testing.B)      { unreclaimedFigure(b, "list", bench.ReadMostly) }
func BenchmarkFig12bBonsai(b *testing.B)    { unreclaimedFigure(b, "bonsai", bench.ReadMostly) }
func BenchmarkFig12cHashMap(b *testing.B)   { unreclaimedFigure(b, "hashmap", bench.ReadMostly) }
func BenchmarkFig12dNatarajan(b *testing.B) { unreclaimedFigure(b, "natarajan", bench.ReadMostly) }
func BenchmarkFig12eSkipList(b *testing.B)  { unreclaimedFigure(b, "skiplist", bench.ReadMostly) }

// Figures 13–16 (PowerPC appendix): the LL/SC hardware is substituted by
// the packed single-word CAS (§4.4); one representative structure per
// family keeps the default benchmark run bounded. The hyalinebench CLI
// regenerates the full 13a–16e grid.
func BenchmarkFig13HashMapWrite(b *testing.B) { throughputFigure(b, "hashmap", bench.WriteHeavy) }
func BenchmarkFig14HashMapWrite(b *testing.B) { unreclaimedFigure(b, "hashmap", bench.WriteHeavy) }
func BenchmarkFig15HashMapRead(b *testing.B)  { throughputFigure(b, "hashmap", bench.ReadMostly) }
func BenchmarkFig16HashMapRead(b *testing.B)  { unreclaimedFigure(b, "hashmap", bench.ReadMostly) }

// Figures 17/18 (reproduction extension): the scan mix over the ordered
// structures. Range scans pin node chains for their whole traversal, so
// the unreclaimed rows separate the schemes hardest here.
func BenchmarkFig17aList(b *testing.B)      { throughputFigure(b, "list", bench.ScanMix) }
func BenchmarkFig17dNatarajan(b *testing.B) { throughputFigure(b, "natarajan", bench.ScanMix) }
func BenchmarkFig17eSkipList(b *testing.B)  { throughputFigure(b, "skiplist", bench.ScanMix) }

func BenchmarkFig18aList(b *testing.B)      { unreclaimedFigure(b, "list", bench.ScanMix) }
func BenchmarkFig18dNatarajan(b *testing.B) { unreclaimedFigure(b, "natarajan", bench.ScanMix) }
func BenchmarkFig18eSkipList(b *testing.B)  { unreclaimedFigure(b, "skiplist", bench.ScanMix) }
