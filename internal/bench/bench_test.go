package bench

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"hyaline/internal/ds"
	"hyaline/internal/server"
	"hyaline/internal/trackers"
)

func TestRunSmoke(t *testing.T) {
	for _, structure := range ds.Names() {
		for _, scheme := range []string{"hyaline", "epoch", "leaky"} {
			if !ds.Supports(structure, scheme) {
				continue
			}
			res, err := Run(Config{
				Structure: structure,
				Scheme:    scheme,
				Threads:   4,
				Duration:  50 * time.Millisecond,
				Prefill:   2000,
				KeyRange:  4000,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", structure, scheme, err)
			}
			if res.Ops == 0 {
				t.Fatalf("%s/%s: zero ops", structure, scheme)
			}
			if res.ThroughputMops <= 0 {
				t.Fatalf("%s/%s: nonpositive throughput", structure, scheme)
			}
		}
	}
}

func TestRunScanMix(t *testing.T) {
	for _, structure := range ds.Names() {
		if !ds.SupportsRange(structure) {
			// Unordered structures must reject the scan mix up front.
			_, err := Run(Config{
				Structure: structure,
				Scheme:    "epoch",
				Threads:   2,
				Duration:  10 * time.Millisecond,
				Workload:  ScanMix,
			})
			if err == nil {
				t.Fatalf("%s accepted a range workload", structure)
			}
			continue
		}
		res, err := Run(Config{
			Structure: structure,
			Scheme:    "hyaline",
			Threads:   4,
			Duration:  50 * time.Millisecond,
			Prefill:   2000,
			KeyRange:  4000,
			Workload:  ScanMix,
		})
		if err != nil {
			t.Fatalf("%s: %v", structure, err)
		}
		if res.Ops == 0 {
			t.Fatalf("%s: zero ops", structure)
		}
		if res.ScannedKeys == 0 {
			t.Fatalf("%s: scan mix visited zero keys", structure)
		}
		if res.Workload != "scan-mix" {
			t.Fatalf("%s: workload reported as %q", structure, res.Workload)
		}
	}
}

func TestScanFiguresRegistered(t *testing.T) {
	for _, id := range []string{"17a", "17d", "17e", "18a", "18d", "18e"} {
		f, err := FigureByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if f.Workload.RangePct == 0 {
			t.Fatalf("figure %s has no range share", id)
		}
		if !ds.SupportsRange(f.Structure) {
			t.Fatalf("figure %s targets unrangeable %s", id, f.Structure)
		}
	}
	// The unordered structures must not appear in the scan figures.
	for _, id := range []string{"17b", "17c", "18b", "18c"} {
		if _, err := FigureByID(id); err == nil {
			t.Fatalf("figure %s exists for an unrangeable structure", id)
		}
	}
}

func TestRunWithStalledThreads(t *testing.T) {
	res, err := Run(Config{
		Structure: "hashmap",
		Scheme:    "epoch",
		Threads:   4,
		Stalled:   2,
		Duration:  50 * time.Millisecond,
		Prefill:   1000,
		KeyRange:  2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalled != 2 || res.Ops == 0 {
		t.Fatalf("bad result %+v", res)
	}
	// A stalled thread under EBR must pin garbage.
	if res.AvgUnreclaimed < 100 {
		t.Fatalf("EBR with stalled threads reported avg unreclaimed %f, expected growth", res.AvgUnreclaimed)
	}
}

func TestRunSessions(t *testing.T) {
	// Session mode: 12 goroutines leasing 4 tids per operation, across
	// a transparent scheme and a reservation-based one.
	for _, scheme := range []string{"hyaline", "hp"} {
		res, err := Run(Config{
			Structure:  "hashmap",
			Scheme:     scheme,
			Threads:    4,
			Sessions:   true,
			Goroutines: 12,
			Duration:   50 * time.Millisecond,
			Prefill:    1000,
			KeyRange:   2000,
		})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if res.Ops == 0 {
			t.Fatalf("%s: zero ops through the session layer", scheme)
		}
		if res.Goroutines != 12 || res.Threads != 4 {
			t.Fatalf("%s: result %+v", scheme, res)
		}
		if !strings.Contains(res.String(), "sessions(gor=12)") {
			t.Fatalf("%s: session mode missing from row: %s", scheme, res)
		}
	}
}

func TestRunSessionsDefaultsGoroutines(t *testing.T) {
	res, err := Run(Config{
		Structure: "hashmap",
		Scheme:    "epoch",
		Threads:   2,
		Sessions:  true,
		Duration:  30 * time.Millisecond,
		Prefill:   500,
		KeyRange:  1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Goroutines != 4 { // 2×Threads
		t.Fatalf("default Goroutines = %d, want 4", res.Goroutines)
	}
}

func TestRunSessionsWithStalled(t *testing.T) {
	// Stalled workers hold leased sessions for the whole run; the
	// remaining tids must still serve all active goroutines.
	res, err := Run(Config{
		Structure:  "hashmap",
		Scheme:     "hyaline-s",
		Threads:    4,
		Stalled:    2,
		Sessions:   true,
		Goroutines: 8,
		Duration:   50 * time.Millisecond,
		Prefill:    500,
		KeyRange:   1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("zero ops with stalled session holders")
	}
}

func TestRunBatch(t *testing.T) {
	// Batched brackets in both tid modes, including a batch larger than
	// the internal chunk (forcing the mid-batch re-arm) and a scheme
	// without Trim (forcing the Leave+Enter fallback).
	for _, tc := range []struct {
		scheme   string
		sessions bool
		batch    int
	}{
		{"hyaline", true, 16},
		{"hyaline", false, 256}, // > batchChunk: trims mid-batch
		{"hp", true, 100},       // no Trimmer: Leave+Enter re-arm
	} {
		res, err := Run(Config{
			Structure: "hashmap",
			Scheme:    tc.scheme,
			Threads:   4,
			Sessions:  tc.sessions,
			BatchSize: tc.batch,
			Duration:  50 * time.Millisecond,
			Prefill:   1000,
			KeyRange:  2000,
		})
		if err != nil {
			t.Fatalf("%s batch=%d: %v", tc.scheme, tc.batch, err)
		}
		if res.Ops == 0 {
			t.Fatalf("%s batch=%d: zero ops", tc.scheme, tc.batch)
		}
		if res.BatchSize != tc.batch {
			t.Fatalf("%s: result BatchSize = %d, want %d", tc.scheme, res.BatchSize, tc.batch)
		}
		if !strings.Contains(res.String(), fmt.Sprintf("batch=%d", tc.batch)) {
			t.Fatalf("%s: batch size missing from row: %s", tc.scheme, res)
		}
	}
}

func TestBatchFiguresRegistered(t *testing.T) {
	for _, id := range []string{"19", "20"} {
		f, err := FigureByID(id)
		if err != nil {
			t.Fatal(err)
		}
		singleton, batched := false, false
		for _, c := range f.Curves {
			if !c.Sessions {
				t.Fatalf("figure %s curve %s does not use the session layer", id, c.Label)
			}
			if c.Batch <= 1 {
				singleton = true
			} else {
				batched = true
			}
		}
		if !singleton || !batched {
			t.Fatalf("figure %s must compare singleton and batched curves", id)
		}
	}
}

func TestBatchFigureRunTiny(t *testing.T) {
	f, err := FigureByID("19")
	if err != nil {
		t.Fatal(err)
	}
	f.Curves = []Curve{
		{Label: "singleton", Scheme: "hyaline", Sessions: true, Batch: 1},
		{Label: "batch64", Scheme: "hyaline", Sessions: true, Batch: 64},
	}
	tab, err := f.Run(RunOptions{
		Duration: 30 * time.Millisecond,
		Xs:       []int{2},
		Prefill:  500,
		KeyRange: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Series["singleton"]) != 1 || len(tab.Series["batch64"]) != 1 {
		t.Fatalf("missing series points: %+v", tab.Series)
	}
}

func TestSessionsRejectTrim(t *testing.T) {
	if _, err := Run(Config{
		Structure: "hashmap", Scheme: "hyaline",
		Threads: 2, Sessions: true, Trim: true,
	}); err == nil {
		t.Fatal("Sessions+Trim must error")
	}
}

func TestRunTrim(t *testing.T) {
	res, err := Run(Config{
		Structure: "hashmap",
		Scheme:    "hyaline",
		Threads:   4,
		Duration:  50 * time.Millisecond,
		Trim:      true,
		Prefill:   1000,
		KeyRange:  2000,
		Tracker:   trackers.Config{Slots: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("zero ops in trim mode")
	}
}

func TestTrimRejectsNonHyaline(t *testing.T) {
	if _, err := Run(Config{Structure: "hashmap", Scheme: "epoch", Trim: true, Threads: 1}); err == nil {
		t.Fatal("trim with EBR must error")
	}
}

func TestBonsaiRejectsHP(t *testing.T) {
	if _, err := Run(Config{Structure: "bonsai", Scheme: "hp", Threads: 1}); err == nil {
		t.Fatal("bonsai under HP must error")
	}
}

func TestFigureSpecs(t *testing.T) {
	figs := AllFigures()
	ids := map[string]bool{}
	for _, f := range figs {
		if ids[f.ID] {
			t.Fatalf("duplicate figure id %s", f.ID)
		}
		ids[f.ID] = true
		if len(f.Curves) == 0 || f.Structure == "" || f.Metric == "" {
			t.Fatalf("incomplete figure %+v", f)
		}
	}
	// The id set is pinned: every family of the paper's x86 evaluation
	// over its four structures plus the skiplist, and this reproduction's
	// extensions. The PowerPC figures 13–16 (no LL/SC path exists here to
	// substitute) and the native-shard figure 26 are gone on purpose.
	want := []string{"10a", "10b", "19", "20", "21", "22", "23", "24", "25", "27"}
	for _, family := range []string{"8", "9", "11", "12"} {
		for _, row := range []string{"a", "b", "c", "d", "e"} {
			want = append(want, family+row)
		}
	}
	for _, family := range []string{"17", "18"} {
		for _, row := range []string{"a", "d", "e"} {
			want = append(want, family+row)
		}
	}
	if len(want) != 36 || len(figs) != len(want) {
		t.Fatalf("%d figure ids registered, pinned set has %d (want 36)", len(figs), len(want))
	}
	for _, id := range want {
		if !ids[id] {
			t.Fatalf("missing figure %s", id)
		}
	}
	// Bonsai figures must not include HP/HE, matching the paper.
	f, err := FigureByID("8b")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range f.Curves {
		if c.Scheme == "hp" || c.Scheme == "he" {
			t.Fatal("bonsai figure includes HP/HE")
		}
	}
}

func TestFigureRunTiny(t *testing.T) {
	f, err := FigureByID("8c")
	if err != nil {
		t.Fatal(err)
	}
	f.Curves = f.Curves[:3] // keep the smoke test quick
	tab, err := f.Run(RunOptions{
		Duration: 30 * time.Millisecond,
		Xs:       []int{1, 2},
		Prefill:  500,
		KeyRange: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Xs) != 2 || len(tab.Series) != 3 {
		t.Fatalf("bad table shape: %d xs, %d series", len(tab.Xs), len(tab.Series))
	}
	csv := tab.CSV()
	if !strings.Contains(csv, "threads,") || len(strings.Split(strings.TrimSpace(csv), "\n")) != 4 {
		t.Fatalf("bad CSV:\n%s", csv)
	}
}

func TestStalledFigureTiny(t *testing.T) {
	f, err := FigureByID("10a")
	if err != nil {
		t.Fatal(err)
	}
	f.Curves = []Curve{
		{Label: "epoch", Scheme: "epoch"},
		{Label: "hyaline-s(resize)", Scheme: "hyaline-s", Resize: true},
	}
	tab, err := f.Run(RunOptions{
		Duration:      30 * time.Millisecond,
		Xs:            []int{0, 2},
		ActiveThreads: 2,
		Prefill:       500,
		KeyRange:      1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Series["epoch"]) != 2 {
		t.Fatal("missing series points")
	}
}

func TestASCIIRendering(t *testing.T) {
	tab := Table{
		Figure: Figure{
			ID: "8c", Caption: "test", Metric: "throughput", Sweep: "threads",
			Curves: []Curve{{Label: "epoch"}, {Label: "hyaline"}},
		},
		Xs: []int{1, 2},
		Series: map[string][]float64{
			"epoch":   {1.0, 2.0},
			"hyaline": {2.0, 4.0},
		},
	}
	out := tab.ASCII()
	if !strings.Contains(out, "figure 8c") || !strings.Contains(out, "hyaline") {
		t.Fatalf("bad ASCII output:\n%s", out)
	}
	// hyaline's bar (the max) must be the full width; epoch's half.
	lines := strings.Split(out, "\n")
	var epochBar, hyalineBar int
	for _, l := range lines {
		n := strings.Count(l, "█")
		if strings.HasPrefix(l, "epoch") {
			epochBar = n
		}
		if strings.HasPrefix(l, "hyaline") {
			hyalineBar = n
		}
	}
	if hyalineBar != 2*epochBar || hyalineBar == 0 {
		t.Fatalf("bar scaling wrong: epoch=%d hyaline=%d", epochBar, hyalineBar)
	}
}

func TestSweepDefaults(t *testing.T) {
	xs := DefaultThreadSweep()
	if len(xs) == 0 || xs[0] != 1 {
		t.Fatalf("thread sweep %v", xs)
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			t.Fatalf("sweep not increasing: %v", xs)
		}
	}
	ss := DefaultStallSweep(8)
	if ss[0] != 0 || ss[len(ss)-1] != 8 {
		t.Fatalf("stall sweep %v", ss)
	}
}

func TestWorkloadNames(t *testing.T) {
	if WriteHeavy.Name() != "write-heavy" || ReadMostly.Name() != "read-mostly" {
		t.Fatal("workload names")
	}
}

func TestServeFiguresRegistered(t *testing.T) {
	for _, id := range []string{"21", "22"} {
		f, err := FigureByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if f.Sweep != "conns" {
			t.Fatalf("figure %s sweeps %q, want conns", id, f.Sweep)
		}
		pipes := map[int]bool{}
		schemes := map[string]bool{}
		for _, c := range f.Curves {
			if c.Pipeline < 1 {
				t.Fatalf("figure %s curve %s has no pipeline depth", id, c.Label)
			}
			pipes[c.Pipeline] = true
			schemes[c.Scheme] = true
		}
		if !pipes[1] || len(pipes) < 2 {
			t.Fatalf("figure %s lacks a singleton/pipelined comparison: %v", id, pipes)
		}
		if len(schemes) < 2 {
			t.Fatalf("figure %s compares only %v", id, schemes)
		}
	}
}

// TestServeBench runs the client/server runner (the machinery behind
// figures 21/22) end to end and sanity-checks the result shape.
func TestServeBench(t *testing.T) {
	res, err := Run(Config{
		Structure: "hashmap",
		Scheme:    "hyaline",
		Threads:   4,
		Conns:     3,
		Pipeline:  8,
		Duration:  100 * time.Millisecond,
		Prefill:   500,
		KeyRange:  2_000,
		ArenaCap:  1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("serve bench measured zero ops")
	}
	if res.Conns != 3 || res.Pipeline != 8 {
		t.Fatalf("result echo: %+v", res)
	}
	if res.FinalStats.Allocated == 0 {
		t.Fatal("serve bench touched no arena nodes")
	}
}

// TestServeBenchRejects covers the serve-mode validation in Run, and
// the serving-layer knobs without a server to configure.
func TestServeBenchRejects(t *testing.T) {
	base := Config{
		Structure: "hashmap", Scheme: "hyaline", Threads: 2, Conns: 1,
		Duration: 10 * time.Millisecond, Prefill: 10, KeyRange: 100, ArenaCap: 1 << 14,
	}
	mutate := []func(*Config){
		func(c *Config) { c.Trim = true },
		func(c *Config) { c.Sessions = true },
		func(c *Config) { c.Stalled = 2 },
		func(c *Config) { c.Workload = ScanMix },
		func(c *Config) { c.Pipeline = 1 << 20 },
		func(c *Config) { c.Conns, c.Coalesce = 0, true },
		func(c *Config) { c.Conns, c.Poll = 0, true },
		func(c *Config) { c.Conns, c.OOO = 0, true },
		func(c *Config) { c.Conns, c.Shards = 0, 4 },
	}
	for i, m := range mutate {
		cfg := base
		m(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: bad serve config accepted", i)
		}
	}
}

// TestServeModes runs the serve runner in every serving configuration
// figures 25/27 plot, over an unsharded and a sharded store. Run fails a
// point whose server does not shut down cleanly, so a nil error is also
// the drain check.
func TestServeModes(t *testing.T) {
	modes := []struct {
		name                string
		coalesce, poll, ooo bool
	}{
		{name: "per-conn"},
		{name: "coalesce", coalesce: true},
		{name: "poll", poll: true},
		{name: "poll+ooo", poll: true, ooo: true},
	}
	for _, m := range modes {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", m.name, shards), func(t *testing.T) {
				if m.poll && !server.PollSupported() {
					t.Skip("no readiness poller on this platform")
				}
				res, err := Run(Config{
					Structure: "hashmap",
					Scheme:    "hyaline",
					Threads:   2,
					Conns:     2,
					Shards:    shards,
					Coalesce:  m.coalesce,
					Poll:      m.poll,
					OOO:       m.ooo,
					Duration:  20 * time.Millisecond,
					Prefill:   100,
					KeyRange:  1_000,
					ArenaCap:  1 << 14,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Ops == 0 || res.Batches == 0 {
					t.Fatalf("ops=%d batches=%d, want both > 0", res.Ops, res.Batches)
				}
				// OOO implies coalesced apply.
				if res.Coalesce != (m.coalesce || m.ooo) || res.Poll != m.poll ||
					res.OOO != m.ooo || res.Shards != shards {
					t.Fatalf("mode not echoed: %+v", res)
				}
			})
		}
	}
}

func TestConnSweepDefault(t *testing.T) {
	xs := DefaultConnSweep()
	if len(xs) == 0 || xs[0] != 1 {
		t.Fatalf("conn sweep %v", xs)
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			t.Fatalf("conn sweep not increasing: %v", xs)
		}
	}
	if top := 4 * runtime.GOMAXPROCS(0); xs[len(xs)-1] != top {
		t.Fatalf("conn sweep %v misses the 4x endpoint %d", xs, top)
	}
}

func TestRunBytes(t *testing.T) {
	// Bytes-payload runs across the modes the payload figures use:
	// per-op brackets, leased batched brackets, and a scheme without
	// Trim. Interleave a uint64 run to exercise the arena-cache
	// transition (a blob-enabled arena must never serve a uint64 run).
	for _, tc := range []struct {
		structure string
		scheme    string
		valueSize int
		sessions  bool
		batch     int
	}{
		{"blist", "hyaline", 16, false, 1},
		{"list", "hyaline", 0, false, 1}, // uint64 between bytes runs
		{"blist", "epoch", 128, true, 64},
		{"blist", "hp", 1024, false, 1},
	} {
		res, err := Run(Config{
			Structure: tc.structure,
			Scheme:    tc.scheme,
			Threads:   2,
			Sessions:  tc.sessions,
			BatchSize: tc.batch,
			ValueSize: tc.valueSize,
			Duration:  50 * time.Millisecond,
			Prefill:   500,
			KeyRange:  1000,
		})
		if err != nil {
			t.Fatalf("%s/%s valuesize=%d: %v", tc.structure, tc.scheme, tc.valueSize, err)
		}
		if res.Ops == 0 {
			t.Fatalf("%s/%s valuesize=%d: zero ops", tc.structure, tc.scheme, tc.valueSize)
		}
		if res.ValueSize != tc.valueSize {
			t.Fatalf("result ValueSize = %d, want %d", res.ValueSize, tc.valueSize)
		}
		if tc.valueSize > 0 && !strings.Contains(res.String(), "bytes(") {
			t.Fatalf("bytes marker missing from row: %s", res)
		}
	}
}

func TestRunBytesRejects(t *testing.T) {
	if _, err := Run(Config{Structure: "blist", Scheme: "hyaline", ValueSize: 64,
		Workload: ScanMix, Duration: time.Millisecond}); err == nil {
		t.Fatal("bytes run with range scans must error")
	}
	if _, err := Run(Config{Structure: "blist", Scheme: "hyaline", ValueSize: 64,
		Conns: 2, Duration: time.Millisecond}); err == nil {
		t.Fatal("bytes client/server run must error")
	}
	if _, err := Run(Config{Structure: "hashmap", Scheme: "hyaline", ValueSize: 64,
		Duration: time.Millisecond}); err == nil {
		t.Fatal("ValueSize on a uint64-only structure must error")
	}
}

func TestPayloadFiguresRegistered(t *testing.T) {
	for _, id := range []string{"23", "24"} {
		f, err := FigureByID(id)
		if err != nil {
			t.Fatal(err)
		}
		u64, bytes := false, false
		for _, c := range f.Curves {
			if c.ValueSize == 0 {
				u64 = true
				if c.Structure != "" {
					t.Fatalf("figure %s curve %s: uint64 curve must inherit the figure structure", id, c.Label)
				}
			} else {
				bytes = true
				if c.Structure != "blist" {
					t.Fatalf("figure %s curve %s: bytes curve must run the blist twin", id, c.Label)
				}
			}
		}
		if !u64 || !bytes {
			t.Fatalf("figure %s must compare uint64 and bytes curves", id)
		}
	}
}

func TestPayloadFigureRunTiny(t *testing.T) {
	f, err := FigureByID("23")
	if err != nil {
		t.Fatal(err)
	}
	f.Curves = []Curve{
		{Label: "u64", Scheme: "hyaline"},
		{Label: "128B", Scheme: "hyaline", Structure: "blist", ValueSize: 128},
	}
	tab, err := f.Run(RunOptions{
		Duration: 30 * time.Millisecond,
		Xs:       []int{2},
		Prefill:  500,
		KeyRange: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Series["u64"]) != 1 || len(tab.Series["128B"]) != 1 {
		t.Fatalf("missing series points: %+v", tab.Series)
	}
}
