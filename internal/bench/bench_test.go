package bench

import (
	"strings"
	"testing"
	"time"

	"hyaline/internal/ds"
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
	// The id set is pinned to the paper's x86 evaluation over its four
	// structures plus the skiplist (row e). The PowerPC figures 13–16
	// (no LL/SC path exists here to substitute) are not reproduced, and
	// figures past 12 belong to no experiment of the paper.
	want := []string{"10a", "10b"}
	for _, family := range []string{"8", "9", "11", "12"} {
		for _, row := range []string{"a", "b", "c", "d", "e"} {
			want = append(want, family+row)
		}
	}
	if len(want) != 22 || len(figs) != len(want) {
		t.Fatalf("%d figure ids registered, pinned set has %d (want 22)", len(figs), len(want))
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
