// Package metrics is the in-process observability core: lock-free
// counters, gauges and concurrent log-linear histograms behind a
// registry that snapshots on demand and encodes itself as Prometheus
// text exposition or JSON (see prom.go), plus the process-level gauges
// (process.go).
//
// The package imports nothing from net/http: the HTTP view over a
// registry (/metrics, /metrics.json, /debug/pprof/) is
// internal/metricshttp, and only cmd/hyalined links it. A process that
// embeds the KV or the server and scrapes its registry in-process
// (Registry.Snapshot, WriteProm, WriteJSON) links no HTTP or TLS stack,
// which CI's dependency-direction step checks.
//
// The design contract is that instrumenting a hot path costs atomic
// arithmetic only: Counter.Add, Gauge.Set and Histogram.Observe are
// wait-free, allocation-free (guarded by AllocsPerRun tests) and touch
// no shared lock. All the string handling — names, labels, HELP text,
// exposition formatting — happens at registration and scrape time,
// never per increment.
//
// # Counter sharding and padding layout
//
// A Counter is the only write-hot shared cell, so it is sharded: a slice
// of cache-line-padded words (one atomic.Uint64 plus 56 bytes of padding
// each), sized to the next power of two of GOMAXPROCS at creation, so
// concurrent incrementers on different Ps land on different cache lines
// instead of bouncing one. Value() folds the shards; it is a scrape-path operation
// and may run concurrently with increments (the sum is then within the
// in-flight increments of exact, which is all a monitoring read can ask).
//
// The shard index is derived from the address of a goroutine-stack
// local: distinct goroutines live on distinct stacks, so hashing the
// address spreads concurrent incrementers across shards at the cost of
// two arithmetic instructions — no thread id, no sync.Pool round trip,
// no allocation. The index is stable for a goroutine between stack
// growths and merely redistributes after one, which affects nothing but
// which shard absorbs the add.
//
// A Gauge is a single padded atomic — gauges are set from one place at
// a time (a connection count, a high-water mark), so sharding would buy
// nothing and cost a fold on every read.
//
// Histograms reuse internal/hist's log-linear layout via hist.Atomic:
// 16 exact buckets then 8 linear sub-buckets per power-of-two row,
// ~6.25% worst-case relative bucket error, fixed memory, one atomic add
// per cell touched.
package metrics

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"hyaline/internal/hist"
)

// counterShard is one cache line of a sharded counter.
type counterShard struct {
	v atomic.Uint64
	_ [7]uint64
}

// Counter is a monotonically increasing, shard-padded counter. The zero
// value is NOT ready to use — obtain one from Registry.Counter so the
// shard slice exists and the series is scrapable.
type Counter struct {
	shards []counterShard
	mask   uint32
}

func newCounter() *Counter {
	n := 1
	if p := runtime.GOMAXPROCS(0); p > 1 {
		n = 1 << bits.Len(uint(p-1)) // next power of two
	}
	if n > 64 {
		n = 64
	}
	return &Counter{shards: make([]counterShard, n), mask: uint32(n - 1)}
}

// shardIndex hashes the address of a stack local into a shard pick; see
// the package doc for why this is both cheap and well spread.
func shardIndex() uint32 {
	var b byte
	p := uintptr(unsafe.Pointer(&b))
	// fmix-style spread: stacks are page-aligned-ish, so fold the high
	// entropy down before masking.
	return uint32((uint64(p) * 0x9e3779b97f4a7c15) >> 40)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Wait-free, allocation-free.
func (c *Counter) Add(n uint64) {
	c.shards[shardIndex()&c.mask].v.Add(n)
}

// Value folds the shards into the current total.
func (c *Counter) Value() uint64 {
	var total uint64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// Gauge is a point-in-time value. Obtain from Registry.Gauge.
type Gauge struct {
	v atomic.Int64
	_ [7]uint64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a concurrent log-linear histogram (see hist.Atomic).
// Obtain from Registry.TimeHistogram or Registry.SizeHistogram — the
// two differ only in how the scrape path labels the bucket boundaries
// (seconds vs raw counts), never in how Observe behaves.
type Histogram struct {
	h hist.Atomic
	// Exposition shape, fixed at registration: bucket upper bounds in
	// raw (nanosecond-integer) units and the factor that converts a raw
	// value to the exposed unit (1e-9 for seconds, 1 for counts).
	bounds []uint64
	scale  float64
}

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) { h.h.Record(d) }

// ObserveN records n samples of the same duration — the server charges
// one window latency to every op the window carried.
func (h *Histogram) ObserveN(d time.Duration, n int64) { h.h.RecordN(d, n) }

// ObserveSize records one dimensionless size sample (a batch width, a
// queue depth).
func (h *Histogram) ObserveSize(n int) { h.h.Record(time.Duration(n)) }

// Snapshot returns an immutable copy for querying.
func (h *Histogram) Snapshot() hist.Hist { return h.h.Snapshot() }

// timeBounds is the exposition ladder for latency histograms: powers of
// four from ~1µs to ~69s. Each is a power of two, so hist.CountBelow is
// exact at every boundary.
func timeBounds() []uint64 {
	var b []uint64
	for e := uint(10); e <= 36; e += 2 {
		b = append(b, 1<<e)
	}
	return b
}

// sizeBounds is the ladder for size histograms: annotated as "≤ 2^k-1"
// boundaries so CountBelow(2^k) is exact (see prom.go).
func sizeBounds() []uint64 {
	var b []uint64
	for e := uint(0); e <= 10; e++ {
		b = append(b, 1<<e)
	}
	return b
}

// kind is a metric family's exposition type.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance of a family. Exactly one of c/g/h/fn
// is set; fn-backed series are sampled at scrape time (used for gauges
// whose truth already lives elsewhere — a KV snapshot, a poller
// registry — where a write-through copy would just invite skew).
type series struct {
	labels []string // alternating key, value, as registered
	lstr   string   // preformatted `{k="v",...}`, "" when unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

func (s *series) value() float64 {
	switch {
	case s.c != nil:
		return float64(s.c.Value())
	case s.g != nil:
		return float64(s.g.Value())
	default:
		return s.fn()
	}
}

// family groups same-named series so the exposition emits one HELP/TYPE
// block per name, as the format requires.
type family struct {
	name   string
	help   string
	kind   kind
	series []*series
}

// Registry owns a set of metric families. Registration takes a lock and
// allocates; the returned instruments never do either again. Scraping
// (Snapshot/WriteProm/WriteJSON) takes the same lock only to copy the
// family list, then reads every cell atomically — a scrape concurrent
// with a storm of increments sees a value within the in-flight writes
// of exact, per instrument, with no cross-instrument cut promised.
type Registry struct {
	mu    sync.Mutex
	fams  []*family
	index map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*family)}
}

// Counter registers (or extends) the named counter family and returns
// the instrument for the given label pairs. Panics on a malformed name,
// odd label pairs, a kind clash with an existing family, or a duplicate
// series — all programming errors, caught at startup.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	c := newCounter()
	r.register(name, help, kindCounter, &series{c: c}, labels)
	return c
}

// Gauge registers a gauge series and returns the instrument.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	g := &Gauge{}
	r.register(name, help, kindGauge, &series{g: g}, labels)
	return g
}

// CounterFunc registers a counter series whose value is sampled from fn
// at scrape time. fn must be safe to call concurrently and must be
// monotone for the exposition type to be honest.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, kindCounter, &series{fn: fn}, labels)
}

// GaugeFunc registers a gauge series sampled from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, kindGauge, &series{fn: fn}, labels)
}

// TimeHistogram registers a latency histogram exposed in seconds.
func (r *Registry) TimeHistogram(name, help string, labels ...string) *Histogram {
	h := &Histogram{bounds: timeBounds(), scale: 1e-9}
	r.register(name, help, kindHistogram, &series{h: h}, labels)
	return h
}

// SizeHistogram registers a dimensionless histogram (batch widths,
// queue depths) exposed in raw counts.
func (r *Registry) SizeHistogram(name, help string, labels ...string) *Histogram {
	h := &Histogram{bounds: sizeBounds(), scale: 1}
	r.register(name, help, kindHistogram, &series{h: h}, labels)
	return h
}

func (r *Registry) register(name, help string, k kind, s *series, labels []string) {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("metrics: %s: odd label pairs %q", name, labels))
	}
	for i := 0; i < len(labels); i += 2 {
		if !validName(labels[i]) {
			panic(fmt.Sprintf("metrics: %s: invalid label name %q", name, labels[i]))
		}
	}
	s.labels = append([]string(nil), labels...)
	s.lstr = labelString(labels)

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.index[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k}
		r.index[name] = f
		r.fams = append(r.fams, f)
	} else if f.kind != k {
		panic(fmt.Sprintf("metrics: %s re-registered as %s, was %s", name, k, f.kind))
	}
	for _, prev := range f.series {
		if prev.lstr == s.lstr {
			panic(fmt.Sprintf("metrics: duplicate series %s%s", name, s.lstr))
		}
	}
	f.series = append(f.series, s)
}

// Value looks up one series' current value by name and label pairs —
// the scrape-free read path tests and the bench harness use. The second
// return is false when the series does not exist (or is a histogram,
// which has no single value).
func (r *Registry) Value(name string, labels ...string) (float64, bool) {
	lstr := labelString(labels)
	r.mu.Lock()
	f := r.index[name]
	var found *series
	if f != nil {
		for _, s := range f.series {
			if s.lstr == lstr {
				found = s
				break
			}
		}
	}
	r.mu.Unlock()
	if found == nil || found.h != nil {
		return 0, false
	}
	return found.value(), true
}

// famView is a scrape-time copy of one family: the slice headers are
// copied under the registry lock (a concurrent registration appends to
// the originals), then the cells are sampled lock-free.
type famView struct {
	name   string
	help   string
	kind   kind
	series []*series
}

// families snapshots the family list for iteration during a scrape.
func (r *Registry) families() []famView {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]famView, len(r.fams))
	for i, f := range r.fams {
		out[i] = famView{
			name:   f.name,
			help:   f.help,
			kind:   f.kind,
			series: append([]*series(nil), f.series...),
		}
	}
	return out
}

// validName enforces the Prometheus metric/label name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// labelString preformats `{k="v",...}` with keys sorted, so equal label
// sets compare equal as strings however they were passed.
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the exposition-format label escapes.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}
