package metrics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrentSum(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	const workers, per = 16, 10000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
			c.Add(5)
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*(per+5) {
		t.Fatalf("Value = %d, want %d", got, workers*(per+5))
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_conns", "conns")
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Add(3)
	if got := g.Value(); got != 10 {
		t.Fatalf("Value = %d, want 10", got)
	}
	g.Add(-12)
	if got := g.Value(); got != -2 {
		t.Fatalf("Value = %d, want -2", got)
	}
}

func TestRegistryValueLookup(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_routed_total", "routed", "shard", "3")
	c.Add(9)
	r.GaugeFunc("test_limbo", "limbo", func() float64 { return 42 })

	if v, ok := r.Value("test_routed_total", "shard", "3"); !ok || v != 9 {
		t.Fatalf("Value(labeled counter) = %v, %v", v, ok)
	}
	if v, ok := r.Value("test_limbo"); !ok || v != 42 {
		t.Fatalf("Value(gauge func) = %v, %v", v, ok)
	}
	if _, ok := r.Value("test_routed_total", "shard", "9"); ok {
		t.Fatal("lookup of an unregistered label set succeeded")
	}
	if _, ok := r.Value("nope"); ok {
		t.Fatal("lookup of an unregistered name succeeded")
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("test_a_total", "a")
	mustPanic("bad name", func() { r.Counter("0bad", "x") })
	mustPanic("odd labels", func() { r.Counter("test_b_total", "x", "k") })
	mustPanic("bad label name", func() { r.Counter("test_c_total", "x", "0k", "v") })
	mustPanic("kind clash", func() { r.Gauge("test_a_total", "now a gauge") })
	mustPanic("duplicate series", func() { r.Counter("test_a_total", "a") })
}

// promLineRe is the text exposition grammar: comment lines and sample
// lines with optional labels and a float value.
var promLineRe = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?` +
		`|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|\+Inf|-Inf|NaN))$`)

func checkExposition(t *testing.T, text string) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(text))
	lines := 0
	for sc.Scan() {
		lines++
		if !promLineRe.MatchString(sc.Text()) {
			t.Fatalf("line %d violates the exposition grammar: %q", lines, sc.Text())
		}
	}
	if lines == 0 {
		t.Fatal("empty exposition")
	}
}

func TestWritePromGrammarAndContent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Operations served.")
	c.Add(1234)
	g := r.Gauge("test_conns", "Open connections, with \\ and \"quotes\" in help.")
	g.Set(-3)
	r.Counter("test_sharded_total", "per shard", "shard", "0").Add(1)
	r.Counter("test_sharded_total", "per shard", "shard", "1").Add(2)
	h := r.TimeHistogram("test_latency_seconds", "Latency.")
	h.Observe(3 * time.Microsecond)
	h.Observe(50 * time.Microsecond)
	h.ObserveN(time.Millisecond, 3)
	sh := r.SizeHistogram("test_batch_ops", "Batch widths.")
	sh.ObserveSize(1)
	sh.ObserveSize(64)
	r.GaugeFunc("test_limbo", "Sampled.", func() float64 { return 17.5 })

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	checkExposition(t, text)

	for _, want := range []string{
		"# TYPE test_ops_total counter",
		"test_ops_total 1234",
		"test_conns -3",
		`test_sharded_total{shard="0"} 1`,
		`test_sharded_total{shard="1"} 2`,
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="+Inf"} 5`,
		"test_latency_seconds_count 5",
		`test_batch_ops_bucket{le="1"} 1`,
		`test_batch_ops_bucket{le="+Inf"} 2`,
		"test_limbo 17.5",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	// One HELP/TYPE block per family, even with two labeled series.
	if got := strings.Count(text, "# TYPE test_sharded_total"); got != 1 {
		t.Fatalf("TYPE emitted %d times for the sharded family, want 1", got)
	}

	// Histogram bucket lines are cumulative and end at the count.
	if !histCumulative(t, text, "test_latency_seconds") {
		t.Fatal("latency buckets not cumulative")
	}
}

// histCumulative walks a histogram's bucket lines asserting monotone
// counts, with +Inf equal to _count.
func histCumulative(t *testing.T, text, name string) bool {
	t.Helper()
	var prev int64 = -1
	var inf, count int64
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		var v int64
		switch {
		case strings.HasPrefix(line, name+"_bucket"):
			if _, err := parseTail(line, &v); err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			if v < prev {
				t.Fatalf("bucket counts decreased at %q", line)
			}
			prev = v
			if strings.Contains(line, `le="+Inf"`) {
				inf = v
			}
		case strings.HasPrefix(line, name+"_count"):
			parseTail(line, &v)
			count = v
		}
	}
	return inf == count && count > 0
}

func parseTail(line string, v *int64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	n, err := json.Number(line[i+1:]).Int64()
	*v = n
	return 0, err
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_ops_total", "ops").Add(5)
	h := r.TimeHistogram("test_latency_seconds", "lat")
	h.Observe(100 * time.Microsecond)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var pts []Point
	if err := json.Unmarshal(buf.Bytes(), &pts); err != nil {
		t.Fatalf("JSON endpoint emitted invalid JSON: %v", err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	if pts[0].Name != "test_ops_total" || pts[0].Value != 5 {
		t.Fatalf("counter point %+v", pts[0])
	}
	if pts[1].Count != 1 || pts[1].P50 <= 0 {
		t.Fatalf("histogram point %+v", pts[1])
	}
}

// TestHotPathZeroAllocs is the package's core contract: the increment
// and observe paths must never touch the heap (the server calls them
// per frame and per window).
func TestHotPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	g := r.Gauge("test_conns", "conns")
	h := r.TimeHistogram("test_latency_seconds", "lat")
	sh := r.SizeHistogram("test_batch_ops", "batch")

	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Fatalf("Counter.Inc allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Add(3) }); n != 0 {
		t.Fatalf("Counter.Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(9) }); n != 0 {
		t.Fatalf("Gauge.Set allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(time.Microsecond) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.ObserveN(time.Microsecond, 16) }); n != 0 {
		t.Fatalf("Histogram.ObserveN allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { sh.ObserveSize(64) }); n != 0 {
		t.Fatalf("Histogram.ObserveSize allocates %v/op", n)
	}
}

// TestScrapeWhileWriting races a scrape against a write storm: every
// line must still parse and the counter must land at the exact total
// once the storm quiesces.
func TestScrapeWhileWriting(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	h := r.TimeHistogram("test_latency_seconds", "lat")
	const workers, per = 8, 20000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
				h.Observe(time.Duration(j))
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := r.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		checkExposition(t, buf.String())
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("post-storm Value = %d, want %d", got, workers*per)
	}
	snap := h.Snapshot()
	if got := snap.Count(); got != workers*per {
		t.Fatalf("post-storm histogram count = %d, want %d", got, workers*per)
	}
}
