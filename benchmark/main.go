// Command benchmark is the repository's one fixed instrument: five
// named workloads, five end-to-end metrics, a per-layer ledger and a
// traced run. See README.md beside this file.
//
//	run.sh --workload NAME --seed N --seconds S --trace 0|1   one run, a JSON result on the last line
//	run.sh [-out FILE]                                        every workload, untraced then traced
//	run.sh -compare A.json B.json                             two result files against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// reading is one reported metric.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run this workload only (default: all, each in a process of its own)")
		seed     = fs.Uint64("seed", defaultSeed, "seed of the generated requests")
		seconds  = fs.Int("seconds", defaultSeconds, "length of the timed window")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and the probes")
		spans    = fs.String("spans", "", "traced run: write the span ring here (default .bench_build/trace-WORKLOAD.json)")
		out      = fs.String("out", "", "all-workloads run: also write the results to this file, for -compare")
		compare  = fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
		probes   = fs.Bool("probes", false, "run the probes only and print them as JSON (used by traced runs)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case fs.NArg() > 0:
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	case *probes:
		vals, err := runProbes()
		if err != nil {
			return fail(err)
		}
		if err := json.NewEncoder(stdout).Encode(vals); err != nil {
			return fail(err)
		}
		return 0
	case *seconds < 1 || *trace < 0 || *trace > 1:
		return fail(fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1"))
	case *workload == "":
		return runAll(*seed, *seconds, *out, stdout, stderr)
	}
	sp := findWorkload(*workload)
	if sp == nil {
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}
	window := time.Duration(*seconds) * time.Second
	printHeader(stdout, sp, *seed, window, *trace)
	var (
		res *result
		err error
	)
	if *trace == 1 {
		if *spans == "" {
			*spans = ".bench_build/trace-" + sp.name + ".json"
		}
		res, err = runTraced(sp, *seed, warmup, window, *spans, selfProbes, stdout)
	} else {
		res, err = runEndToEnd(sp, *seed, warmup, window, setupRounds, stdout)
	}
	if err != nil {
		return fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func printHeader(w io.Writer, sp *spec, seed uint64, window time.Duration, trace int) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "# %s %s/%s nproc=%d commit=%s\n", runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), commit)
	fmt.Fprintf(w, "# workload=%s GOMAXPROCS=%d clients=%d (closed loop) seed=%d window_s=%g slices=%d warmup_s=%g trace=%d\n",
		sp.name, sp.procs, sp.clients, seed, window.Seconds(), numSlices, warmup.Seconds(), trace)
	if sp.served() {
		fmt.Fprintln(w, "# the server runs in this process on a 127.0.0.1:0 listener: traffic crosses the kernel's loopback TCP")
	}
}

func printErrs(w io.Writer, errs []error) {
	for i, err := range errs {
		if i == 5 {
			fmt.Fprintf(w, "! and %d more\n", len(errs)-i)
			return
		}
		fmt.Fprintln(w, "!", err)
	}
}

func printMetrics(w io.Writer, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-40s %16.4f %s\n", d.name, vals[d.name], d.unit)
	}
}

func toResult(defs []metricDef, vals map[string]float64, attempted, failed int64) *result {
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]reading{}}
	for _, d := range defs {
		res.Metrics[d.name] = reading{Value: vals[d.name], Unit: d.unit}
	}
	return res
}

// runEndToEnd is a --trace 0 run: one untraced timed window, then the
// extra set-ups behind setup_s, rounds in all.
func runEndToEnd(sp *spec, seed uint64, warm, window time.Duration, rounds int, stdout io.Writer) (*result, error) {
	m, err := measure(sp, seed, warm, window, nil)
	if err != nil {
		return nil, err
	}
	setups, err := timeSetups(sp, seed, rounds-1)
	if err != nil {
		return nil, err
	}
	setups = append(setups, m.setup.Seconds())
	vals := map[string]float64{
		"ops_per_s":       m.opsPerS,
		"p50_us":          m.p50us,
		"p99_us":          m.p99us,
		"live_nodes_peak": m.liveNodesPeak,
		"rss_peak_mb":     m.rssPeakMB,
		"setup_s":         median(setups),
	}
	printErrs(stdout, m.errs)
	printMetrics(stdout, endToEnd, vals)
	fmt.Fprintf(stdout, "# p50: every slice has at least %d latency samples of %d ops; p99 %.4f us with %d samples beyond it; setup_s: median of %d set-ups\n",
		m.windows, sp.window, m.p99us, m.beyondP99, len(setups))
	fmt.Fprintf(stdout, "# per slice: ops/s %.0f; unreclaimed nodes p99 %.0f (run average %.0f); RSS rose %.1f MB over the window\n", m.sliceRate, m.slicePeak, m.unreclaimedAvg, m.rssGrowthMB)
	return toResult(endToEnd, vals, m.attempted, m.failed), nil
}

// runTraced is a --trace 1 run: half the window untraced (the base of
// the overhead figure, allocation and reclamation counts), half traced,
// then the probes.
func runTraced(sp *spec, seed uint64, warm, window time.Duration, spanFile string, probes func() (map[string]float64, error), stdout io.Writer) (*result, error) {
	plain, err := measure(sp, seed, warm, window/2, nil)
	if err != nil {
		return nil, err
	}
	// Give the first window's heap back, so the second starts on fresh
	// pages as the first did.
	debug.FreeOSMemory()
	tr := newTracer(sp.name)
	traced, err := measure(sp, seed, warm, window/2, tr)
	if err != nil {
		return nil, err
	}
	if spanFile != "" {
		if err := tr.writeSpans(spanFile); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(stdout, "# %d spans recorded, the last %d written to %s\n", tr.next, min(tr.next, traceRing), spanFile)
	}
	vals, err := probes()
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	layerMetrics(vals, sp, plain, traced, tr)
	printErrs(stdout, append(plain.errs, traced.errs...))
	printMetrics(stdout, perLayer, vals)
	return toResult(perLayer, vals, plain.attempted+traced.attempted, plain.failed+traced.failed), nil
}

// layerMetrics fills in what the two windows of a traced run measured.
func layerMetrics(vals map[string]float64, sp *spec, plain, traced *measured, tr *tracer) {
	per := func(total int64, ops int64) float64 {
		if ops == 0 {
			return 0
		}
		return float64(total) / float64(ops)
	}
	kops := float64(plain.timedOps) / 1000
	vals["smr.retired_per_kop"] = float64(plain.stats.Retired) / kops
	vals["smr.scans_per_kop"] = float64(plain.stats.Scans) / kops
	vals["smr.freed_per_scan"] = per(plain.stats.Freed, plain.stats.Scans)
	vals["smr.unreclaimed_avg"] = plain.unreclaimedAvg
	vals["smr.unreclaimed_peak"] = plain.unreclaimedPeak
	vals["proc.rss_growth_mb"] = plain.rssGrowthMB
	vals["trace.overhead_frac"] = (plain.opsPerS - traced.opsPerS) / plain.opsPerS
	vals["client.p99_us"] = plain.p99us
	if !sp.served() {
		for kind, name := range map[spanKind]string{spOpGet: "inproc.get_ns", spOpInsert: "inproc.insert_ns", spOpDelete: "inproc.delete_ns"} {
			t := tr.total(kind)
			vals[name] = per(t.ns, t.count)
		}
		scans := tr.total(spOpRange)
		vals["inproc.range_ns_per_key"] = per(scans.ns, scans.n)
		return
	}
	vals["server.allocs_per_kop"] = float64(plain.mallocs) / kops
	var (
		req      = tr.total(spRequest)
		apply    = tr.total(spServerApply)
		srvRead  = tr.total(spServerSockRead)
		srvWrite = tr.total(spServerSockWrite)
		ops      = req.n
		layers   float64
	)
	for kind, name := range map[spanKind]string{
		spServerApply:     "server.apply_ns_per_op",
		spServerSockWrite: "server.sock_write_ns_per_op",
		spClientEncode:    "client.encode_ns_per_op",
		spClientSockWrite: "client.sock_write_ns_per_op",
		spClientDecode:    "client.decode_ns_per_op",
	} {
		vals[name] = per(tr.total(kind).ns, ops)
		layers += vals[name]
	}
	// What p50_us follows: a request's round trip. With two closed-loop
	// clients on one P it is about twice busy, the other connection's
	// turn included.
	vals["server.rtt_ns_per_op"] = per(req.ns, ops)
	// With GOMAXPROCS=1 nothing overlaps, so wall time per op is the
	// whole path of one op, 1e9/ops_per_s, and the layers are shares of
	// it. What no span covers is the residue: server loop, read
	// syscalls, goroutine wake-ups and the kernel's loopback path.
	busy := per(int64(traced.timed), traced.timedOps)
	vals["server.busy_ns_per_op"] = busy
	vals["server.residual_ns_per_op"] = busy - layers
	vals["server.ops_per_apply"] = per(apply.n, apply.count)
	vals["server.read_calls_per_op"] = per(srvRead.count, ops)
	vals["server.write_calls_per_op"] = per(srvWrite.count, ops)
	vals["server.wire_bytes_per_op"] = per(srvRead.n+srvWrite.n, ops)
}

// selfProbes runs the probes in a process of their own.
func selfProbes() (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-probes")
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{}
	if err := json.Unmarshal(outBytes, &vals); err != nil {
		return nil, err
	}
	return vals, nil
}

// resultsFile is what an all-workloads run writes with -out and what
// -compare reads: per workload, the end-to-end and the per-layer result.
type resultsFile struct {
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	EndToEnd  map[string]*result `json:"end_to_end"`
	PerLayer  map[string]*result `json:"per_layer"`
	GoVersion string             `json:"go_version"`
}

// runAll runs every workload in a process of its own, so that RSS
// high-water, GC state and GOMAXPROCS belong to one workload, first
// untraced and then traced, and prints what each printed.
func runAll(seed uint64, seconds int, outFile string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	all := resultsFile{Seed: seed, Seconds: seconds, GoVersion: runtime.Version(),
		EndToEnd: map[string]*result{}, PerLayer: map[string]*result{}}
	code := 0
	for _, sp := range workloads {
		for trace, into := range []map[string]*result{all.EndToEnd, all.PerLayer} {
			cmd := exec.Command(exe, "-workload", sp.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
			cmd.Stderr = stderr
			outBytes, runErr := cmd.Output()
			stdout.Write(outBytes)
			lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s trace=%d printed no result: %v\n", sp.name, trace, runErr)
				code = 1
				continue
			}
			into[sp.name] = &res
			if runErr != nil || !res.Correct {
				code = 1
			}
		}
	}
	if outFile != "" {
		b, err := json.MarshalIndent(all, "", " ")
		if err == nil {
			err = os.WriteFile(outFile, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

// compareFiles prints every (workload, end-to-end metric) pair of two
// result files with both values, the relative difference (positive is
// worse) and the bound, and fails if a pair is outside its bound or a
// run had failures.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var files [2]resultsFile
	for i, p := range []string{pathA, pathB} {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &files[i])
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	names := make([]string, 0, len(files[0].EndToEnd))
	for name := range files[0].EndToEnd {
		names = append(names, name)
	}
	sort.Strings(names)
	code := 0
	fmt.Fprintf(stdout, "%-14s %-18s %16s %16s %9s %7s\n", "workload", "metric", "A", "B", "worse by", "bound")
	for _, name := range names {
		a, b := files[0].EndToEnd[name], files[1].EndToEnd[name]
		if b == nil {
			fmt.Fprintf(stdout, "%-14s missing from %s\n", name, pathB)
			code = 1
			continue
		}
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.name].Value, b.Metrics[d.name].Value
			worse := (vb - va) / va
			if d.better == "higher" {
				worse = -worse
			}
			mark := ""
			if worse > d.bound {
				mark = "  OUTSIDE"
				code = 1
			}
			fmt.Fprintf(stdout, "%-14s %-18s %16.4f %16.4f %+8.1f%% %6.0f%%%s\n", name, d.name, va, vb, 100*worse, 100*d.bound, mark)
		}
		if a.Failed != 0 || b.Failed != 0 {
			fmt.Fprintf(stdout, "%-14s failed ops: A %d of %d, B %d of %d  OUTSIDE\n", name, a.Failed, a.Attempted, b.Failed, b.Attempted)
			code = 1
		}
	}
	return code
}
