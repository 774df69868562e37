// Oversubscribed: the paper's §6 headline — when threads outnumber
// cores, Hyaline's asynchronous tracking beats epoch-based reclamation.
//
// EBR must periodically check every thread's reservation to advance, so
// preempted threads (inevitable when oversubscribed) stall reclamation
// for everyone and scans grow with the thread count. Hyaline's threads
// instead drop reference counts on exactly the nodes retired during
// their own operation — no scanning, O(1) per operation — and larger
// retire batches amortize the slot traffic (§6: "the small gap ... can
// be eliminated by further increasing batch sizes").
//
// The final rows drive the same oversubscription through the leased-tid
// session layer instead of raw preemption: 4×cores goroutines share
// just `cores` tids, each operation leasing one — the shape of a Go
// service where request handlers outnumber the reclamation slots.
//
//	go run ./examples/oversubscribed
package main

import (
	"fmt"
	"os"
	"runtime"
	"text/tabwriter"
	"time"

	"hyaline/internal/bench"
	"hyaline/internal/exenv"
)

func main() {
	cores := runtime.GOMAXPROCS(0)
	threads := []int{cores, 2 * cores, 4 * cores}
	window := time.Second
	if exenv.Fast() {
		window = 50 * time.Millisecond
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "threads\tgoroutines\tscheme\tMops/s\tavg unreclaimed\n")
	for _, n := range threads {
		for _, scheme := range []string{"epoch", "hyaline"} {
			cfg := bench.Config{
				Structure: "hashmap",
				Scheme:    scheme,
				Threads:   n,
				Duration:  window,
				Prefill:   50_000,
				KeyRange:  100_000,
			}
			if scheme == "hyaline" {
				// Larger batches amortize slot traffic when preemption
				// makes operations long (§6).
				cfg.Tracker.MinBatch = 256
			}
			res, err := bench.Run(cfg)
			if err != nil {
				panic(err)
			}
			fmt.Fprintf(w, "%d\t%d\t%s\t%.2f\t%.0f\n",
				n, n, scheme, res.ThroughputMops, res.AvgUnreclaimed)
		}
	}
	// Session mode: the goroutine count exceeds the tid count, so the
	// oversubscription happens at the lease, not in the scheduler.
	for _, scheme := range []string{"epoch", "hyaline"} {
		cfg := bench.Config{
			Structure:  "hashmap",
			Scheme:     scheme,
			Threads:    cores,
			Sessions:   true,
			Goroutines: 4 * cores,
			Duration:   window,
			Prefill:    50_000,
			KeyRange:   100_000,
		}
		if scheme == "hyaline" {
			cfg.Tracker.MinBatch = 256
		}
		res, err := bench.Run(cfg)
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(w, "%d (leased)\t%d\t%s\t%.2f\t%.0f\n",
			cores, res.Goroutines, scheme, res.ThroughputMops, res.AvgUnreclaimed)
	}
	w.Flush()
	fmt.Printf("\n(%d cores; threads beyond that are preempted mid-operation, and the\n"+
		"leased rows oversubscribe via the session layer instead)\n", cores)
}
