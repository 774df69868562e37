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
//	hyalinebench -structure hashmap -scheme hyaline -sessions -goroutines 32   # leased tids
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

// sweep runs one figure; tests replace it to inspect the options a
// -figure run maps its flags to.
var sweep = bench.Figure.Run

// workloads are the -workload values: the paper's two mixes.
var workloads = map[string]bench.Workload{
	"write": bench.WriteHeavy,
	"read":  bench.ReadMostly,
}

// flags are hyalinebench's command-line knobs, bound to the flag set newFlags
// builds with them.
type flags struct {
	list, table1, trim, sessions, ascii             *bool
	figure, structure, scheme, workload, sweepCSV   *string
	threads, stalled, gor, slots, prefill, arenaCap *int
	duration                                        *time.Duration
	keyrange                                        *uint64
}

// newFlags builds hyalinebench's flag set; the README flag check reads it too.
func newFlags() (*flag.FlagSet, *flags) {
	fs := flag.NewFlagSet("hyalinebench", flag.ContinueOnError)
	return fs, &flags{
		list:     fs.Bool("list", false, "list all reproducible figures and exit"),
		table1:   fs.Bool("table1", false, "print the paper's Table 1 (qualitative comparison)"),
		figure:   fs.String("figure", "", "figure id to regenerate (e.g. 8c, 10a; 'all' for everything)"),
		duration: fs.Duration("duration", time.Second, "measurement window per data point (paper: 10s)"),
		threads:  fs.Int("threads", runtime.GOMAXPROCS(0), "worker count for single runs; active threads for -figure 10a, which runs GOMAXPROCS-2 when this is unset"),
		stalled:  fs.Int("stalled", 0, "stalled-thread count for single runs"),

		structure: fs.String("structure", "", "single run: data structure (list|hashmap|bonsai|natarajan|skiplist)"),
		scheme:    fs.String("scheme", "", "single run: reclamation scheme"),
		workload:  fs.String("workload", "write", "workload mix: write (50i/50d) or read (90g/10p)"),
		trim:      fs.Bool("trim", false, "single run: use Hyaline trim (§3.3)"),
		sessions:  fs.Bool("sessions", false, "single run: drive workers through the leased-tid session layer (goroutines share -threads tids)"),
		gor:       fs.Int("goroutines", 0, "single run: session-mode worker count (0 or -1 = auto, 2x threads; may exceed -threads)"),
		slots:     fs.Int("slots", 0, "Hyaline slot cap k (0 = next pow2 of cores)"),
		prefill:   fs.Int("prefill", 50_000, "prefill element count"),
		keyrange:  fs.Uint64("keyrange", 100_000, "key universe size"),
		arenaCap:  fs.Int("arenacap", 1<<25, "node pool capacity (virtual until touched)"),
		sweepCSV:  fs.String("sweep", "", "comma-separated thread counts overriding the default sweep"),
		ascii:     fs.Bool("ascii", false, "render figures as terminal bar charts instead of CSV"),
	}
}

func run(args []string) error {
	fs, fl := newFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Validate flag combinations up front: a contradictory or negative
	// knob must abort with a clear message, not silently reshape the run
	// (bench.Config's zero-value defaulting would otherwise paper over
	// all of these).
	if *fl.gor == -1 {
		*fl.gor = 0 // explicit auto, same as the default
	}
	wl, knownWorkload := workloads[*fl.workload]
	switch {
	case !knownWorkload:
		return fmt.Errorf("-workload %q: want write or read", *fl.workload)
	case *fl.gor < 0:
		return fmt.Errorf("-goroutines %d: want a positive worker count, or 0/-1 for auto (2x threads)", *fl.gor)
	case *fl.gor > 0 && !*fl.sessions:
		return fmt.Errorf("-goroutines %d without -sessions: goroutine workers exist only in session mode (add -sessions, or drop -goroutines)", *fl.gor)
	case *fl.threads < 1:
		return fmt.Errorf("-threads %d: need at least one worker thread", *fl.threads)
	case *fl.stalled < 0:
		return fmt.Errorf("-stalled %d: the stalled-thread count cannot be negative", *fl.stalled)
	}

	switch {
	case *fl.list:
		return printList()
	case *fl.table1:
		return printTable1()
	case *fl.figure != "":
		xs, err := parseSweep(*fl.sweepCSV)
		if err != nil {
			return err
		}
		opts := bench.RunOptions{Duration: *fl.duration, Prefill: *fl.prefill, KeyRange: *fl.keyrange, Xs: xs}
		// Figure.Run picks the stalled sweeps' active threads itself
		// unless -threads says otherwise.
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "threads" {
				opts.ActiveThreads = *fl.threads
			}
		})
		return runFigures(*fl.figure, opts, *fl.ascii)
	case *fl.structure != "" && *fl.scheme != "":
		return runSingle(bench.Config{
			Structure:  *fl.structure,
			Scheme:     *fl.scheme,
			Threads:    *fl.threads,
			Stalled:    *fl.stalled,
			Duration:   *fl.duration,
			Workload:   wl,
			Trim:       *fl.trim,
			Sessions:   *fl.sessions,
			Goroutines: *fl.gor,
			Prefill:    *fl.prefill,
			KeyRange:   *fl.keyrange,
			ArenaCap:   *fl.arenaCap,
			Tracker:    trackers.Config{Slots: *fl.slots},
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

func runFigures(id string, opts bench.RunOptions, ascii bool) error {
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
	opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	for _, f := range figs {
		tab, err := sweep(f, opts)
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

// runSingle measures one data point.
func runSingle(cfg bench.Config) error {
	res, err := bench.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Println(res)
	fmt.Printf("  ops=%d max-unreclaimed=%d stats=%+v\n",
		res.Ops, res.MaxUnreclaimed, res.FinalStats)
	return nil
}
