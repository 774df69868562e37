// Command hyalinebench regenerates the tables and figures of the paper
// "Hyaline: Fast and Transparent Lock-Free Memory Reclamation"
// (Nikolaev & Ravindran, PODC 2019) on the Go reproduction.
//
// Usage:
//
//	hyalinebench -list                      # show every figure id
//	hyalinebench -table1                    # print Table 1 (properties)
//	hyalinebench -figure 8c                 # run one figure, CSV to stdout
//	hyalinebench -figure all -duration 2s   # run everything (slow)
//	hyalinebench -structure hashmap -scheme hyaline -threads 8   # one point
//	hyalinebench -structure hashmap -scheme hyaline -sessions -batch 64   # batched leases
//	hyalinebench -structure hashmap -scheme hyaline -conns 16 -pipeline 16   # client/server mode
//	hyalinebench -structure blist -scheme hyaline -valuesize 128   # bytes payloads
//	hyalinebench -structure hashmap -scheme hyaline -conns 16 -shards 4   # ... over a sharded store
//
// Absolute numbers depend on the machine; the paper's claims are about
// shapes (scheme ordering, the oversubscription crossover, robustness
// cliffs), which the CSV series reproduce. Performance claims about this
// repository are made with benchmark/, not here (README, "Measuring").
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	"hyaline/internal/arena"
	"hyaline/internal/bench"
	"hyaline/internal/trackers"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hyalinebench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hyalinebench", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list all reproducible figures and exit")
		table1   = fs.Bool("table1", false, "print the paper's Table 1 (qualitative comparison)")
		figure   = fs.String("figure", "", "figure id to regenerate (e.g. 8c, 10a; 'all' for everything)")
		duration = fs.Duration("duration", time.Second, "measurement window per data point (paper: 10s)")
		threads  = fs.Int("threads", runtime.GOMAXPROCS(0), "worker count for single runs / active threads for -figure 10a")
		stalled  = fs.Int("stalled", 0, "stalled-thread count for single runs")

		structure = fs.String("structure", "", "single run: data structure (list|hashmap|bonsai|natarajan|skiplist)")
		scheme    = fs.String("scheme", "", "single run: reclamation scheme")
		workload  = fs.String("workload", "write", "workload mix: write (50i/50d), read (90g/10p) or scan (10i/10d/10r/70g)")
		rangePct  = fs.Int("range", 0, "single run: percentage of operations that are range scans (ordered structures only; carved from the get share)")
		rangeSpan = fs.Uint64("rangespan", 128, "single run: key width of one range scan")
		trim      = fs.Bool("trim", false, "single run: use Hyaline trim (§3.3)")
		sessions  = fs.Bool("sessions", false, "single run: drive workers through the leased-tid session layer (goroutines share -threads tids)")
		gor       = fs.Int("goroutines", 0, "single run: session-mode worker count (0 or -1 = auto, 2x threads; may exceed -threads)")
		batch     = fs.Int("batch", 0, "single run: operations per lease+Enter/Leave bracket (0/1 = singleton ops)")
		conns     = fs.Int("conns", 0, "single run: client/server mode — drive an in-process TCP server with this many closed-loop connections")
		pipe      = fs.Int("pipeline", 0, "single run: requests kept in flight per connection (needs -conns; 0 = 1, singleton round trips)")
		coalesce  = fs.Bool("coalesce", false, "single run: merge apply batches across connections (needs -conns)")
		poll      = fs.Bool("poll", false, "single run: park idle connections in the readiness poller (needs -conns and a poller backend)")
		ooo       = fs.Bool("ooo", false, "single run: complete replies out of order on seq-framed connections; implies -coalesce (needs -conns)")
		emitMet   = fs.Bool("metrics", false, "single run: print the server's metrics-registry snapshot (JSON) after the result (needs -conns)")
		valsize   = fs.Int("valuesize", 0, "single run: bytes payload size — switches to []byte keys/values (bytes structures only, e.g. blist)")
		shards    = fs.Int("shards", 0, "single run: shard count of the served store (needs -conns; 0/1 = unsharded; may exceed -threads — idle shards just see less traffic)")
		slots     = fs.Int("slots", 0, "Hyaline slot cap k (0 = next pow2 of cores)")
		prefill   = fs.Int("prefill", 50_000, "prefill element count")
		keyrange  = fs.Uint64("keyrange", 100_000, "key universe size")
		arenaCap  = fs.Int("arenacap", 1<<25, "node pool capacity (virtual until touched)")
		sweepCSV  = fs.String("sweep", "", "comma-separated thread counts overriding the default sweep")
		ascii     = fs.Bool("ascii", false, "render figures as terminal bar charts instead of CSV")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Validate flag combinations up front: a contradictory or negative
	// knob must abort with a clear message, not silently reshape the run
	// (bench.Config's zero-value defaulting would otherwise paper over
	// all of these).
	if *gor == -1 {
		*gor = 0 // explicit auto, same as the default
	}
	switch {
	case *batch < 0:
		return fmt.Errorf("-batch %d: a batch cannot have a negative size (0 or 1 = singleton ops)", *batch)
	case *gor < 0:
		return fmt.Errorf("-goroutines %d: want a positive worker count, or 0/-1 for auto (2x threads)", *gor)
	case *gor > 0 && !*sessions:
		return fmt.Errorf("-goroutines %d without -sessions: goroutine workers exist only in session mode (add -sessions, or drop -goroutines)", *gor)
	case *threads < 1:
		return fmt.Errorf("-threads %d: need at least one worker thread", *threads)
	case *stalled < 0:
		return fmt.Errorf("-stalled %d: the stalled-thread count cannot be negative", *stalled)
	case *conns < 0:
		return fmt.Errorf("-conns %d: the connection count cannot be negative", *conns)
	case *pipe < 0:
		return fmt.Errorf("-pipeline %d: the pipeline depth cannot be negative", *pipe)
	case *pipe > 0 && *conns == 0:
		return fmt.Errorf("-pipeline %d without -conns: pipelining is a property of client connections (add -conns)", *pipe)
	case *coalesce && *conns == 0:
		return fmt.Errorf("-coalesce without -conns: coalescing merges apply batches across client connections (add -conns)")
	case *poll && *conns == 0:
		return fmt.Errorf("-poll without -conns: the readiness poller parks client connections (add -conns)")
	case *ooo && *conns == 0:
		return fmt.Errorf("-ooo without -conns: out-of-order completion is a serving-layer mode (add -conns)")
	case *emitMet && *conns == 0:
		return fmt.Errorf("-metrics without -conns: the metrics registry lives in the server (add -conns)")
	case *conns > 0 && (*sessions || *gor > 0):
		return fmt.Errorf("-conns %d with -sessions/-goroutines: client/server mode manages its own goroutines", *conns)
	case *conns > 0 && *batch > 0:
		return fmt.Errorf("-conns %d with -batch: the server batches pipelined commands itself (use -pipeline)", *conns)
	case *valsize < 0:
		return fmt.Errorf("-valuesize %d: the payload size cannot be negative (0 = uint64 payloads)", *valsize)
	case *valsize > 0 && *conns > 0:
		return fmt.Errorf("-valuesize %d with -conns: the client/server bench drives uint64 frames only", *valsize)
	case *shards < 0:
		return fmt.Errorf("-shards %d: the shard count cannot be negative (0 or 1 = unsharded)", *shards)
	case *shards > 1 && *conns == 0:
		return fmt.Errorf("-shards %d without -conns: sharding is a property of the served store (add -conns)", *shards)
	}

	switch {
	case *list:
		return printList()
	case *table1:
		return printTable1()
	case *figure != "":
		return runFigures(*figure, *duration, *threads, *prefill, *keyrange, *sweepCSV, *ascii)
	case *structure != "" && *scheme != "":
		return runSingle(*workload, *rangePct, bench.Config{
			Structure:  *structure,
			Scheme:     *scheme,
			Threads:    *threads,
			Stalled:    *stalled,
			Duration:   *duration,
			RangeSpan:  *rangeSpan,
			Trim:       *trim,
			Sessions:   *sessions,
			Goroutines: *gor,
			BatchSize:  *batch,
			Conns:      *conns,
			Pipeline:   *pipe,
			Coalesce:   *coalesce,
			Poll:       *poll,
			OOO:        *ooo,
			ValueSize:  *valsize,
			Shards:     *shards,
			Metrics:    *emitMet,
			Prefill:    *prefill,
			KeyRange:   *keyrange,
			ArenaCap:   *arenaCap,
			Tracker:    trackers.Config{Slots: *slots},
		})
	default:
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -list, -table1, -figure or -structure/-scheme")
	}
}

func printList() error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "ID\tSTRUCTURE\tMETRIC\tSWEEP\tCAPTION")
	for _, f := range bench.AllFigures() {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\n", f.ID, f.Structure, f.Metric, f.Sweep, f.Caption)
	}
	return w.Flush()
}

func printTable1() error {
	a := arena.New(64)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Scheme\tBased on\tPerformance\tRobust\tTransparent\tReclam.\tUsage/API")
	for _, name := range []string{
		"leaky", "hp", "epoch", "he", "ibr",
		"hyaline", "hyaline-1", "hyaline-s", "hyaline-1s",
	} {
		tr, err := trackers.New(name, a, trackers.Config{MaxThreads: 1})
		if err != nil {
			return err
		}
		p := tr.Properties()
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			p.Scheme, p.BasedOn, p.Performance, p.Robust, p.Transparent, p.Reclamation, p.API)
	}
	return w.Flush()
}

func parseSweep(csv string) ([]int, error) {
	if csv == "" {
		return nil, nil
	}
	var xs []int
	for _, part := range strings.Split(csv, ",") {
		var x int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &x); err != nil {
			return nil, fmt.Errorf("bad sweep element %q", part)
		}
		xs = append(xs, x)
	}
	return xs, nil
}

func runFigures(id string, duration time.Duration, active, prefill int, keyrange uint64, sweepCSV string, ascii bool) error {
	xs, err := parseSweep(sweepCSV)
	if err != nil {
		return err
	}
	var figs []bench.Figure
	if id == "all" {
		figs = bench.AllFigures()
	} else {
		for _, one := range strings.Split(id, ",") {
			f, err := bench.FigureByID(strings.TrimSpace(one))
			if err != nil {
				return err
			}
			figs = append(figs, f)
		}
	}
	for _, f := range figs {
		tab, err := f.Run(bench.RunOptions{
			Duration:      duration,
			ActiveThreads: active,
			Prefill:       prefill,
			KeyRange:      keyrange,
			Xs:            xs,
			Progress: func(line string) {
				fmt.Fprintln(os.Stderr, line)
			},
		})
		if err != nil {
			return err
		}
		if ascii {
			fmt.Print(tab.ASCII())
		} else {
			fmt.Print(tab.CSV())
		}
		fmt.Println()
	}
	return nil
}

// runSingle measures one data point: cfg with the named workload mix,
// rangePct percent of it carved out for range scans.
func runSingle(workload string, rangePct int, cfg bench.Config) error {
	wl := bench.WriteHeavy
	switch {
	case strings.HasPrefix(workload, "read"):
		wl = bench.ReadMostly
	case strings.HasPrefix(workload, "scan"):
		wl = bench.ScanMix
	}
	if rangePct < 0 || rangePct > 100 {
		return fmt.Errorf("-range %d%% outside [0, 100]", rangePct)
	}
	if rangePct > 0 {
		// Scans take their share from the gets first; if the mutation
		// percentages no longer fit, shrink insert/delete proportionally
		// so the mix still sums to 100.
		wl.RangePct = rangePct
		if over := wl.InsertPct + wl.DeletePct + wl.RangePct - 100; over > 0 {
			wl.InsertPct -= over / 2
			wl.DeletePct -= over - over/2
		}
		wl.GetPct = 100 - wl.InsertPct - wl.DeletePct - wl.RangePct
	}
	cfg.Workload = wl
	res, err := bench.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Println(res)
	fmt.Printf("  ops=%d max-unreclaimed=%d stats=%+v\n",
		res.Ops, res.MaxUnreclaimed, res.FinalStats)
	if res.ScannedKeys > 0 {
		fmt.Printf("  range scans visited %d keys (%.2f Mkeys/s)\n",
			res.ScannedKeys, float64(res.ScannedKeys)/res.Duration.Seconds()/1e6)
	}
	if len(res.Metrics) > 0 {
		fmt.Printf("  metrics: %s\n", res.Metrics)
	}
	return nil
}
