package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestHistQuantileWithinOnePercent(t *testing.T) {
	r := newRng(7, 0)
	var h hist
	samples := make([]float64, 200_000)
	for i := range samples {
		// Latency-shaped: a 5-40 us body with a tail out to 10 ms.
		ns := 5_000 + r.next()%35_000
		if r.next()%50 == 0 {
			ns = 40_000 + r.next()%10_000_000
		}
		samples[i] = float64(ns)
		h.record(int64(ns))
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		want := samples[int(math.Ceil(q*float64(len(samples))))-1]
		got := h.quantile(q)
		if e := math.Abs(got-want) / want; e > 0.01 {
			t.Errorf("q%.3f = %.0f, sorted sample has %.0f: off by %.2f%%", q, got, want, 100*e)
		}
	}
	if got, want := h.above(0.99), int64(len(samples)/100); got != want {
		t.Errorf("above(0.99) = %d, want %d", got, want)
	}
	var empty hist
	if empty.quantile(0.5) != 0 {
		t.Error("quantile of an empty histogram is not 0")
	}
}

func TestHistBucketsAreDenseAndMonotone(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1 << 20, 1<<20 + 1<<13, 1 << 40, 1 << 45, 1 << 63} {
		b := histBucketOf(v)
		if b < prev || b >= histBuckets {
			t.Fatalf("bucket of %d is %d after %d (of %d)", v, b, prev, histBuckets)
		}
		prev = b
		if lo, width := histBucketRange(b); v < 1<<41 && (float64(v) < lo || float64(v) >= lo+width) {
			t.Fatalf("value %d is outside its bucket [%g, %g)", v, lo, lo+width)
		}
	}
}

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func TestManifestMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" || m.RunSeconds != defaultSeconds {
		t.Errorf("paths %v run_seconds %d, want [benchmark] and %d", m.Paths, m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) > 8 || len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed 8/16/128", len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	compare := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, g := range got {
			checkName(g.Name)
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || !unit.MatchString(g.Unit) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, w)
			}
			if g.Better != "higher" && g.Better != "lower" {
				t.Errorf("%s: better is %q", g.Name, g.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s: bound %v, the program has %v", g.Name, g.Bound, w.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", g.Name)
			}
		}
	}
	compare("end-to-end", m.EndToEnd, endToEnd, true)
	compare("per-layer", m.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("no setup_s among the end-to-end metrics")
	}
}

func opsHash(sp *spec, seed uint64, client int) uint64 {
	g := newGen(sp, seed, client, -1)
	h := fnv.New64a()
	for i := 0; i < 10_000; i++ {
		o := g.next()
		h.Write(strconv.AppendUint(nil, uint64(o.kind)<<56^o.key<<16^uint64(o.vlen), 16))
	}
	return h.Sum64()
}

func TestRequestsAreAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		sp := &workloads[i]
		if opsHash(sp, 1, 0) != opsHash(sp, 1, 0) {
			t.Errorf("%s: seed 1 does not replay", sp.name)
		}
		if opsHash(sp, 1, 0) == opsHash(sp, 2, 0) || opsHash(sp, 1, 0) == opsHash(sp, 1, 1) {
			t.Errorf("%s: another seed or another client draws the same requests", sp.name)
		}
		var a, b []uint64
		prefillKeys(sp, 1, func(k uint64) bool { a = append(a, k); return true })
		prefillKeys(sp, 1, func(k uint64) bool { b = append(b, k); return true })
		if len(a) != sp.prefill || !slices.Equal(a, b) {
			t.Errorf("%s: the prefill does not replay", sp.name)
		}
		g := newGen(sp, 1, 1, 1)
		for n := 0; n < 1000; n++ {
			if o := g.next(); o.key%2 != 1 || o.key >= sp.keyRange {
				t.Fatalf("%s: traced client 1 drew key %d outside its residue class or the key range", sp.name, o.key)
			}
		}
	}
}

// TestOnlySutImportsTheSystem keeps the list of entry points in sut.go
// complete: no other file may reach the system under test.
func TestOnlySutImportsTheSystem(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if (path == "hyaline" || strings.HasPrefix(path, "hyaline/")) && file != "sut.go" {
				t.Errorf("%s imports %s: only sut.go may", file, path)
			}
		}
	}
}

const (
	smokeWarmup = 20 * time.Millisecond
	smokeWindow = 200 * time.Millisecond
)

func TestSmokeEndToEnd(t *testing.T) {
	for i := range workloads {
		sp := &workloads[i]
		t.Run(sp.name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := runEndToEnd(sp, 1, smokeWarmup, smokeWindow, 2, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct %v, %d of %d failed\n%s", res.Correct, res.Failed, res.Attempted, out.String())
			}
			checkMetrics(t, res, endToEnd, func(metricDef) bool { return true })
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	for i := range workloads {
		sp := &workloads[i]
		t.Run(sp.name, func(t *testing.T) {
			spans := filepath.Join(t.TempDir(), "spans.json")
			noProbes := func() (map[string]float64, error) { return map[string]float64{}, nil }
			res, err := runTraced(sp, 1, smokeWarmup, smokeWindow, spans, noProbes, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, res, perLayer, func(d metricDef) bool {
				layer, _, _ := strings.Cut(d.name, ".")
				switch layer {
				case "server", "client":
					return sp.served() && d.name != "server.allocs_per_kop"
				case "inproc":
					return !sp.served() && tracedKinds(sp, res.Attempted/2)[d.name]
				}
				return d.name == "smr.retired_per_kop"
			})
			var file struct {
				Workload string
				Spans    []struct {
					Name, Workload, ID, Parent string
					StartNS                    int64 `json:"start_ns"`
					EndNS                      int64 `json:"end_ns"`
				}
			}
			raw, err := os.ReadFile(spans)
			if err == nil {
				err = json.Unmarshal(raw, &file)
			}
			if err != nil || file.Workload != sp.name || len(file.Spans) == 0 {
				t.Fatalf("span file: %v, workload %q, %d spans", err, file.Workload, len(file.Spans))
			}
			for _, s := range file.Spans {
				if s.Workload != sp.name || s.EndNS < s.StartNS || (s.Name == "request") == (s.Parent != "") {
					t.Fatalf("malformed span %+v", s)
				}
			}
			if sp.served() {
				v := func(n string) float64 { return res.Metrics[n].Value }
				sum := v("server.apply_ns_per_op") + v("server.sock_write_ns_per_op") + v("client.sock_write_ns_per_op") +
					v("client.encode_ns_per_op") + v("client.decode_ns_per_op") + v("server.residual_ns_per_op")
				if busy := v("server.busy_ns_per_op"); math.Abs(sum-busy) > 1e-6*busy {
					t.Errorf("layers and residual sum to %.3f, busy is %.3f", sum, busy)
				}
			}
		})
	}
}

// tracedKinds is which kinds of call a traced window of ops operations
// must have sampled: those the mix makes often enough for each worker to
// reach its one-in-64 several times over (the race detector slows the
// skiplist enough to matter).
func tracedKinds(sp *spec, ops int64) map[string]bool {
	enough := func(pct int) bool { return ops*int64(pct)/100 >= int64(4*traceSampleOps*sp.clients) }
	return map[string]bool{
		"inproc.get_ns":           enough(sp.getPct),
		"inproc.insert_ns":        enough(sp.setPct),
		"inproc.delete_ns":        enough(sp.delPct),
		"inproc.range_ns_per_key": enough(100 - sp.getPct - sp.setPct - sp.delPct),
	}
}

// checkMetrics checks that a result carries exactly the metrics of defs,
// with their units, and a positive value wherever positive says so.
func checkMetrics(t *testing.T, res *result, defs []metricDef, positive func(metricDef) bool) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d defined", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		got, ok := res.Metrics[d.name]
		switch {
		case !ok || got.Unit != d.unit:
			t.Errorf("%s: reported %v (%+v), want unit %s", d.name, ok, got, d.unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s is %v", d.name, got.Value)
		case positive(d) && got.Value <= 0:
			t.Errorf("%s is %v, want it positive", d.name, got.Value)
		}
	}
}

func TestProbesReportEveryProbeMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("the probes take a few seconds")
	}
	vals, err := runProbes()
	if err != nil {
		t.Fatal(err)
	}
	measuredElsewhere := regexp.MustCompile(`^(server|client|inproc|proc|trace)\.|^smr\.[a-z_]+$`)
	n := 0
	for _, d := range perLayer {
		if measuredElsewhere.MatchString(d.name) {
			continue
		}
		n++
		if v, ok := vals[d.name]; !ok || v < 0 || d.name != "kv.get_allocs_per_kop" && v == 0 {
			t.Errorf("probe %s: reported %v, value %v", d.name, ok, v)
		}
	}
	if n != len(vals) {
		t.Errorf("%d probe metrics defined, %d reported", n, len(vals))
	}
}

func TestCompareMarksAPairOutsideItsBound(t *testing.T) {
	mk := func(ops float64, failed int64) resultsFile {
		vals := map[string]float64{}
		for _, d := range endToEnd {
			vals[d.name] = 100
		}
		vals["ops_per_s"] = ops
		return resultsFile{EndToEnd: map[string]*result{"serve_single": toResult(endToEnd, vals, 1000, failed)}}
	}
	write := func(name string, f resultsFile) string {
		p := filepath.Join(t.TempDir(), name)
		b, err := json.Marshal(f)
		if err == nil {
			err = os.WriteFile(p, b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", mk(100, 0))
	bound := 100 * endToEnd[0].bound // of ops_per_s, in percent
	for _, c := range []struct {
		name string
		file resultsFile
		code int
		mark bool
	}{
		{"within", mk(100-bound/2, 0), 0, false},
		{"better", mk(150, 0), 0, false},
		{"worse", mk(100-2*bound, 0), 1, true},
		{"failures", mk(100, 3), 1, true},
	} {
		var out bytes.Buffer
		code := compareFiles(base, write(c.name+".json", c.file), &out, io.Discard)
		if code != c.code || strings.Contains(out.String(), "OUTSIDE") != c.mark {
			t.Errorf("%s: exit code %d, want %d; output:\n%s", c.name, code, c.code, out.String())
		}
	}
}

func TestCommandLine(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no_such"},
		{"-workload", "serve_single", "-trace", "2"},
		{"-workload", "serve_single", "-seconds", "0"},
		{"-compare", "only-one.json"},
		{"stray"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("%v exits 0", args)
		}
	}
}
