// Command hyalineload is a closed-loop load generator for hyalined: it
// opens -conns TCP connections, keeps -pipeline requests in flight on
// each (one write, -pipeline replies, repeat), and reports client-side
// throughput and latency plus the server's STATS gauges — including the
// unreclaimed-object count, the robustness metric the paper plots.
//
// Usage:
//
//	hyalineload -addr 127.0.0.1:4980 -conns 64 -pipeline 16 -duration 5s
//	hyalineload -addr 127.0.0.1:4980 -conns 64 -pipeline 1   # singleton baseline
//	hyalineload -addr ... -mix read            # 5% insert / 5% delete / 90% get
//	hyalineload -addr ... -mix 20/20/60        # custom insert/delete/get split
//	hyalineload -addr ... -bytes -valuesize 16-4096   # []byte ops, uniform sizes
//	hyalineload -addr ... -bytes -valuesize bimodal   # 90% small, 10% 1-8 KiB
//
// With -bytes the generator speaks GETB/SETB/DELB against a hyalined
// started with -bytes: keys are 8-byte big-endian encodings of the same
// key universe and values are runs of the fill byte key*31+7 whose
// length is drawn from the -valuesize distribution (a fixed "N", a
// uniform "MIN-MAX", or "bimodal"). A GETB hit with any other content
// is reported as a reclamation bug, exactly like the uint64 check.
//
// Replies come back in request order, so the i-th reply of a window
// answers its i-th request, and each is checked against that request:
// a GET hit must carry the key's own value (SET writes key*31+7, so a
// hit returning anything else means a reclamation bug corrupted the
// map), a SET or DEL reply must carry no payload, and any ERR reply
// aborts the run. A reply stream out of step with the requests fails
// on the first reply that does not fit. One latency sample is recorded
// per request: from the window's flush to that request's reply.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hyaline/internal/hist"
	"hyaline/internal/protocol"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hyalineload:", err)
		os.Exit(1)
	}
}

// maxPipeline bounds the closed-loop window (deadlock bound, shared
// with the bench harness).
const maxPipeline = protocol.MaxPipelineWindow

type mix struct {
	insertPct, deletePct int // the rest are gets
}

func parseMix(s string) (mix, error) {
	switch s {
	case "write":
		return mix{50, 50}, nil
	case "read":
		return mix{5, 5}, nil
	}
	parts := strings.Split(s, "/")
	if len(parts) != 3 {
		return mix{}, fmt.Errorf("-mix %q: want write, read, or I/D/G percentages like 20/20/60", s)
	}
	var pct [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return mix{}, fmt.Errorf("-mix %q: bad percentage %q", s, p)
		}
		pct[i] = v
	}
	if pct[0]+pct[1]+pct[2] != 100 {
		return mix{}, fmt.Errorf("-mix %q: percentages sum to %d, want 100", s, pct[0]+pct[1]+pct[2])
	}
	return mix{pct[0], pct[1]}, nil
}

// maxValueSize bounds -valuesize so a SETB frame (2-byte key prefix +
// 8-byte key + value) always fits MaxPayload with room to spare.
const maxValueSize = 32 << 10

// vsDist is a value-size distribution: fixed ("64"), uniform
// ("16-4096"), or bimodal (90% of draws uniform in 16..128 bytes, 10%
// uniform in 1..8 KiB — small metadata with an occasional large blob).
type vsDist struct {
	bimodal  bool
	min, max int // inclusive; min == max for fixed
}

func parseValueSize(s string) (vsDist, error) {
	if s == "bimodal" {
		return vsDist{bimodal: true}, nil
	}
	lo, hi, ok := strings.Cut(s, "-")
	min, err := strconv.Atoi(strings.TrimSpace(lo))
	if err != nil || min < 0 {
		return vsDist{}, fmt.Errorf("-valuesize %q: want N, MIN-MAX, or bimodal", s)
	}
	max := min
	if ok {
		if max, err = strconv.Atoi(strings.TrimSpace(hi)); err != nil || max < min {
			return vsDist{}, fmt.Errorf("-valuesize %q: want N, MIN-MAX, or bimodal", s)
		}
	}
	if max > maxValueSize {
		return vsDist{}, fmt.Errorf("-valuesize %q: values above %d bytes do not fit a frame", s, maxValueSize)
	}
	return vsDist{min: min, max: max}, nil
}

func (d vsDist) sample(rng *rand.Rand) int {
	if d.bimodal {
		if rng.Intn(10) == 0 {
			return 1024 + rng.Intn(7*1024+1)
		}
		return 16 + rng.Intn(113)
	}
	if d.min == d.max {
		return d.min
	}
	return d.min + rng.Intn(d.max-d.min+1)
}

// cap returns the largest value the distribution can produce, for
// sizing the per-connection scratch buffer.
func (d vsDist) cap() int {
	if d.bimodal {
		return 8 << 10
	}
	return d.max
}

// flags are hyalineload's command-line knobs, bound to the flag set newFlags
// builds with them.
type flags struct {
	addr, mixFlag, vsFlag    *string
	conns, pipeline, prefill *int
	duration                 *time.Duration
	keyrange                 *uint64
	useBytes                 *bool
}

// newFlags builds hyalineload's flag set; the README flag check reads it too.
func newFlags() (*flag.FlagSet, *flags) {
	fs := flag.NewFlagSet("hyalineload", flag.ContinueOnError)
	return fs, &flags{
		addr:     fs.String("addr", "127.0.0.1:4980", "hyalined address"),
		conns:    fs.Int("conns", 16, "concurrent client connections"),
		pipeline: fs.Int("pipeline", 16, "requests kept in flight per connection (1 = singleton round trips)"),
		duration: fs.Duration("duration", 5*time.Second, "measurement window"),
		mixFlag:  fs.String("mix", "write", "operation mix: write (50i/50d), read (5i/5d/90g) or I/D/G percentages"),
		keyrange: fs.Uint64("keyrange", 100_000, "key universe size"),
		prefill:  fs.Int("prefill", 0, "SETs to issue before measuring (warms the map for read mixes)"),
		useBytes: fs.Bool("bytes", false, "drive GETB/SETB/DELB against a hyalined -bytes server"),
		vsFlag:   fs.String("valuesize", "64", "value-size distribution for -bytes: N, MIN-MAX, or bimodal"),
	}
}

func run(args []string) error {
	fs, fl := newFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fl.conns < 1 {
		return fmt.Errorf("-conns %d: need at least one connection", *fl.conns)
	}
	if *fl.pipeline < 1 || *fl.pipeline > maxPipeline {
		return fmt.Errorf("-pipeline %d: want 1..%d (a closed-loop window must fit the socket buffers)", *fl.pipeline, maxPipeline)
	}
	if *fl.duration <= 0 {
		return fmt.Errorf("-duration %v: the measurement window must be positive", *fl.duration)
	}
	if *fl.keyrange == 0 {
		return fmt.Errorf("-keyrange 0: need a non-empty key universe")
	}
	if *fl.prefill < 0 {
		return fmt.Errorf("-prefill %d: cannot be negative", *fl.prefill)
	}
	m, err := parseMix(*fl.mixFlag)
	if err != nil {
		return err
	}
	vs, err := parseValueSize(*fl.vsFlag)
	if err != nil {
		return err
	}

	if *fl.prefill > 0 {
		if err := doPrefill(*fl.addr, *fl.prefill, *fl.keyrange, *fl.useBytes, vs); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}

	var (
		stop    atomic.Bool
		started sync.WaitGroup
		done    sync.WaitGroup
		release = make(chan struct{})
		ops     = make([]int64, *fl.conns)
		hists   = make([]hist.Hist, *fl.conns)
		errOnce sync.Once
		runErr  error
	)
	fail := func(err error) {
		errOnce.Do(func() { runErr = err })
		stop.Store(true)
	}
	for i := 0; i < *fl.conns; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			n, err := drive(*fl.addr, i, *fl.pipeline, m, *fl.keyrange, newPayload(*fl.useBytes, vs), &stop, &started, release, &hists[i])
			ops[i] = n
			if err != nil {
				fail(err)
			}
		}(i)
	}
	started.Wait()
	start := time.Now()
	close(release)
	time.Sleep(*fl.duration)
	stop.Store(true)
	done.Wait()
	elapsed := time.Since(start)
	if runErr != nil {
		return runErr
	}

	var total int64
	agg := &hists[0]
	for i := 1; i < *fl.conns; i++ {
		agg.Merge(&hists[i])
	}
	for _, n := range ops {
		total += n
	}
	family := "uint64"
	if *fl.useBytes {
		family = "bytes valuesize=" + *fl.vsFlag
	}
	fmt.Printf("hyalineload: addr=%s conns=%d pipeline=%d mix=%s payload=%s window=%v\n",
		*fl.addr, *fl.conns, *fl.pipeline, *fl.mixFlag, family, elapsed.Round(time.Millisecond))
	fmt.Printf("  client: ops=%d throughput=%.3f Mops/s\n",
		total, float64(total)/elapsed.Seconds()/1e6)
	fmt.Printf("  latency (per request, flush to reply): p50=%v p99=%v\n",
		agg.Quantile(0.50).Round(time.Microsecond), agg.Quantile(0.99).Round(time.Microsecond))

	return printServerStats(*fl.addr)
}

// payload is what a connection puts on the wire: the key family
// SET/GET/DEL are encoded in, and how a GET hit is verified.
// uint64 SETs write key*31+7. Bytes keys are the same universe as 8-byte
// big-endian encodings and values are runs of the fill byte key*31+7
// whose length is drawn from vs, so a hit must be a run of the key's
// fill byte (any length the server may have stored). Either way a
// reclamation bug that hands back a recycled or poisoned node is caught
// on the wire.
type payload struct {
	bytes          bool
	vs             vsDist
	keyBuf, valBuf []byte // bytes only: per-connection encode scratch
}

func newPayload(useBytes bool, vs vsDist) *payload {
	p := &payload{bytes: useBytes, vs: vs}
	if useBytes {
		p.keyBuf = make([]byte, 8)
		p.valBuf = make([]byte, vs.cap())
	}
	return p
}

// keyB encodes key into the connection's scratch buffer.
func (p *payload) keyB(key uint64) []byte {
	binary.BigEndian.PutUint64(p.keyBuf, key)
	return p.keyBuf
}

func (p *payload) set(w *protocol.Writer, rng *rand.Rand, key uint64) {
	if p.bytes {
		val := p.valBuf[:p.vs.sample(rng)]
		fillValue(val, key)
		w.SetB(p.keyB(key), val)
	} else {
		w.Set(key, key*31+7)
	}
}

func (p *payload) get(w *protocol.Writer, key uint64) {
	if p.bytes {
		w.GetB(p.keyB(key))
	} else {
		w.Get(key)
	}
}

func (p *payload) del(w *protocol.Writer, key uint64) {
	if p.bytes {
		w.DelB(p.keyB(key))
	} else {
		w.Del(key)
	}
}

// checkHit verifies the value a GET/GETB hit returned for key.
func (p *payload) checkHit(val []byte, key uint64) error {
	if p.bytes {
		return checkValue(val, key)
	}
	v, err := protocol.U64(val)
	if err != nil {
		return err
	}
	if want := key*31 + 7; v != want {
		return fmt.Errorf("corrupted read: GET %d returned %d, want %d (reclamation bug?)", key, v, want)
	}
	return nil
}

// drive is one closed-loop connection: write a window, read its replies,
// repeat until stop. Returns the completed-op count.
func drive(addr string, seed, pipeline int, m mix, keyrange uint64, pl *payload,
	stop *atomic.Bool, started *sync.WaitGroup, release <-chan struct{}, h *hist.Hist) (int64, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		started.Done()
		return 0, err
	}
	defer c.Close()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	cl := newClient(c, seed, pipeline, m, keyrange, pl, h)
	started.Done()
	<-release

	ops := int64(0)
	for !stop.Load() {
		if err := cl.roundTrip(); err != nil {
			return ops, err
		}
		ops += int64(pipeline)
	}
	return ops, nil
}

// client is one connection's closed loop: the window of requests in
// flight and the wire it travels over.
type client struct {
	w        *protocol.Writer
	rd       *protocol.Reader
	pl       *payload
	rng      *rand.Rand
	m        mix
	keyrange uint64
	keys     []uint64
	ops      []protocol.Op // OpGet, OpSet or OpDel: the kind asked at each position
	h        *hist.Hist
}

func newClient(c net.Conn, seed, pipeline int, m mix, keyrange uint64, pl *payload, h *hist.Hist) *client {
	return &client{
		w:        protocol.NewWriter(c),
		rd:       protocol.NewReader(c),
		pl:       pl,
		rng:      rand.New(rand.NewSource(int64(seed)*2654435761 + 1)),
		m:        m,
		keyrange: keyrange,
		keys:     make([]uint64, pipeline),
		ops:      make([]protocol.Op, pipeline),
		h:        h,
	}
}

// roundTrip writes one window in a single flush and reads its replies,
// recording one latency sample per reply and checking the i-th reply
// against the i-th request.
func (cl *client) roundTrip() error {
	for i := range cl.keys {
		key := uint64(cl.rng.Int63n(int64(cl.keyrange)))
		cl.keys[i] = key
		switch roll := cl.rng.Intn(100); {
		case roll < cl.m.insertPct:
			cl.ops[i] = protocol.OpSet
			cl.pl.set(cl.w, cl.rng, key)
		case roll < cl.m.insertPct+cl.m.deletePct:
			cl.ops[i] = protocol.OpDel
			cl.pl.del(cl.w, key)
		default:
			cl.ops[i] = protocol.OpGet
			cl.pl.get(cl.w, key)
		}
	}
	t0 := time.Now()
	if err := cl.w.Flush(); err != nil {
		return err
	}
	for i, op := range cl.ops {
		f, err := cl.rd.ReadFrame()
		if err != nil {
			return err
		}
		cl.h.Record(time.Since(t0))
		switch status := protocol.Status(f.Code); {
		case status != protocol.StatusOK && status != protocol.StatusNil:
			return fmt.Errorf("reply %d of the window: %s %s", i, status, f.Payload)
		case status == protocol.StatusOK && op == protocol.OpGet:
			if err := cl.pl.checkHit(f.Payload, cl.keys[i]); err != nil {
				return fmt.Errorf("reply %d of the window: %w", i, err)
			}
		case len(f.Payload) != 0:
			return fmt.Errorf("reply %d of the window: %s %d answered %s with a %d-byte payload (replies out of step?)",
				i, op, cl.keys[i], status, len(f.Payload))
		}
	}
	return nil
}

// fillValue writes the integrity pattern for key: a run of the fill
// byte key*31+7.
func fillValue(dst []byte, key uint64) {
	fill := byte(key*31 + 7)
	for i := range dst {
		dst[i] = fill
	}
}

// checkValue verifies a GETB payload against the key's fill pattern.
func checkValue(val []byte, key uint64) error {
	fill := byte(key*31 + 7)
	for i, b := range val {
		if b != fill {
			return fmt.Errorf("corrupted read: GETB %d byte %d is %#x, want %#x (reclamation bug?)", key, i, b, fill)
		}
	}
	return nil
}

// doPrefill streams SETs over one pipelined connection until count keys
// have been attempted (duplicates may collapse; the goal is a warm map,
// not an exact census).
func doPrefill(addr string, count int, keyrange uint64, useBytes bool, vs vsDist) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(4242))
	w := protocol.NewWriter(c)
	rd := protocol.NewReader(c)
	pl := newPayload(useBytes, vs)
	const window = 256
	for sent := 0; sent < count; {
		n := count - sent
		if n > window {
			n = window
		}
		for i := 0; i < n; i++ {
			pl.set(w, rng, uint64(rng.Int63n(int64(keyrange))))
		}
		if err := w.Flush(); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			f, err := rd.ReadFrame()
			if err != nil {
				return err
			}
			if protocol.Status(f.Code) == protocol.StatusErr {
				return fmt.Errorf("server error reply: %s", f.Payload)
			}
		}
		sent += n
	}
	return nil
}

// printServerStats fetches and prints the server-side gauges on a fresh
// connection, after the measured run.
func printServerStats(addr string) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("stats connection: %w", err)
	}
	defer c.Close()
	w := protocol.NewWriter(c)
	rd := protocol.NewReader(c)
	w.Stats()
	if err := w.Flush(); err != nil {
		return err
	}
	f, err := rd.ReadFrame()
	if err != nil {
		return err
	}
	if protocol.Status(f.Code) != protocol.StatusOK {
		return fmt.Errorf("STATS reply %s: %s", protocol.Status(f.Code), f.Payload)
	}
	st, err := protocol.ParseStats(f.Payload)
	if err != nil {
		return err
	}
	fmt.Printf("  server: structure=%s scheme=%s threads=%d shards=%d conns=%d total-conns=%d served-ops=%d\n",
		st.Structure, st.Scheme, st.MaxThreads, st.Shards, st.Conns, st.TotalConns, st.Ops)
	fmt.Printf("          len=%d live=%d allocated=%d retired=%d freed=%d unreclaimed=%d\n",
		st.Len, st.Live, st.Allocated, st.Retired, st.Freed, st.Unreclaimed())
	fmt.Printf("          scans=%d goroutines=%d rejected=%d active-conns=%d\n",
		st.Scans, st.Goroutines, st.Rejected, st.ActiveConns)
	return nil
}
