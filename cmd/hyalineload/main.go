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
// Every GET hit is integrity-checked (SET writes key*31+7, so a hit
// returning anything else means a reclamation bug corrupted the map) and
// any ERR reply aborts the run.
//
// With -seq every connection negotiates sequence-id framing via HELLO
// and tags each data request with a u32 seq the server echoes on the
// reply. The generator then records one latency sample per request
// (flush to that request's own reply) instead of one per pipeline
// window, and matches each echo against the window's outstanding seqs
// — replies may arrive in any order (the protocol explicitly permits
// out-of-order completion under FlagSeq, which hyalined -ooo
// exercises), but an unknown seq, a duplicate echo, or a window that
// completes with replies missing is an error. Integrity checks follow
// the matched request, so a reordered GETB hit is still verified
// against its own key.
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

func run(args []string) error {
	fs := flag.NewFlagSet("hyalineload", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:4980", "hyalined address")
		conns    = fs.Int("conns", 16, "concurrent client connections")
		pipeline = fs.Int("pipeline", 16, "requests kept in flight per connection (1 = singleton round trips)")
		duration = fs.Duration("duration", 5*time.Second, "measurement window")
		mixFlag  = fs.String("mix", "write", "operation mix: write (50i/50d), read (5i/5d/90g) or I/D/G percentages")
		keyrange = fs.Uint64("keyrange", 100_000, "key universe size")
		prefill  = fs.Int("prefill", 0, "SETs to issue before measuring (warms the map for read mixes)")
		useBytes = fs.Bool("bytes", false, "drive GETB/SETB/DELB against a hyalined -bytes server")
		vsFlag   = fs.String("valuesize", "64", "value-size distribution for -bytes: N, MIN-MAX, or bimodal")
		useSeq   = fs.Bool("seq", false, "negotiate seq framing (HELLO) and record per-request latency matched by seq echo")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *conns < 1 {
		return fmt.Errorf("-conns %d: need at least one connection", *conns)
	}
	if *pipeline < 1 || *pipeline > maxPipeline {
		return fmt.Errorf("-pipeline %d: want 1..%d (a closed-loop window must fit the socket buffers)", *pipeline, maxPipeline)
	}
	if *keyrange == 0 {
		return fmt.Errorf("-keyrange 0: need a non-empty key universe")
	}
	if *prefill < 0 {
		return fmt.Errorf("-prefill %d: cannot be negative", *prefill)
	}
	m, err := parseMix(*mixFlag)
	if err != nil {
		return err
	}
	vs, err := parseValueSize(*vsFlag)
	if err != nil {
		return err
	}

	if *prefill > 0 {
		if err := doPrefill(*addr, *prefill, *keyrange, *useBytes, vs); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}

	var (
		stop    atomic.Bool
		started sync.WaitGroup
		done    sync.WaitGroup
		release = make(chan struct{})
		ops     = make([]int64, *conns)
		hists   = make([]hist.Hist, *conns)
		errOnce sync.Once
		runErr  error
	)
	fail := func(err error) {
		errOnce.Do(func() { runErr = err })
		stop.Store(true)
	}
	for i := 0; i < *conns; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			n, err := drive(*addr, i, *pipeline, m, *keyrange, newPayload(*useBytes, *useSeq, vs), &stop, &started, release, &hists[i])
			ops[i] = n
			if err != nil {
				fail(err)
			}
		}(i)
	}
	started.Wait()
	start := time.Now()
	close(release)
	time.Sleep(*duration)
	stop.Store(true)
	done.Wait()
	elapsed := time.Since(start)
	if runErr != nil {
		return runErr
	}

	var total int64
	agg := &hists[0]
	for i := 1; i < *conns; i++ {
		agg.Merge(&hists[i])
	}
	for _, n := range ops {
		total += n
	}
	family := "uint64"
	if *useBytes {
		family = "bytes valuesize=" + *vsFlag
	}
	fmt.Printf("hyalineload: addr=%s conns=%d pipeline=%d mix=%s payload=%s seq=%v window=%v\n",
		*addr, *conns, *pipeline, *mixFlag, family, *useSeq, elapsed.Round(time.Millisecond))
	fmt.Printf("  client: ops=%d throughput=%.3f Mops/s\n",
		total, float64(total)/elapsed.Seconds()/1e6)
	latLabel := "per pipelined round trip"
	if *useSeq {
		latLabel = "per request, seq-matched"
	}
	fmt.Printf("  latency (%s): p50=%v p99=%v\n",
		latLabel, agg.Quantile(0.50).Round(time.Microsecond), agg.Quantile(0.99).Round(time.Microsecond))

	return printServerStats(*addr)
}

// negotiateSeq performs the HELLO handshake on a fresh connection and
// fails unless the server accepts seq framing.
func negotiateSeq(w *protocol.Writer, rd *protocol.Reader) error {
	w.Hello(protocol.FlagSeq)
	if err := w.Flush(); err != nil {
		return err
	}
	f, err := rd.ReadFrame()
	if err != nil {
		return err
	}
	if protocol.Status(f.Code) != protocol.StatusOK {
		return fmt.Errorf("HELLO rejected: %s", f.Payload)
	}
	accepted, err := protocol.ParseHello(f.Payload)
	if err != nil {
		return err
	}
	if accepted&protocol.FlagSeq == 0 {
		return fmt.Errorf("server did not accept seq framing (flags %#x); is hyalined current?", accepted)
	}
	return nil
}

// seqWindow tracks the outstanding sequence ids of one pipeline window
// — the contiguous range base..base+n-1 — and matches reply echoes
// against them in whatever order they arrive. FlagSeq licenses
// out-of-order completion, so in-order arrival must not be assumed;
// what stays an error is a seq outside the window (unknown), a second
// echo of one already matched (duplicate), or a window that runs out
// of replies with seqs still pending (incomplete — checked by done).
type seqWindow struct {
	base uint32
	seen []bool
	left int
}

// reset arms the window for n requests starting at base.
func (sw *seqWindow) reset(base uint32, n int) {
	sw.base = base
	if cap(sw.seen) < n {
		sw.seen = make([]bool, n)
	} else {
		sw.seen = sw.seen[:n]
		for i := range sw.seen {
			sw.seen[i] = false
		}
	}
	sw.left = n
}

// match verifies one echoed seq and returns the index of the request it
// answers (offset within the window, valid into the caller's per-window
// bookkeeping). Unsigned subtraction handles the u32 seq counter
// wrapping mid-window.
func (sw *seqWindow) match(got uint32) (int, error) {
	idx := got - sw.base
	if idx >= uint32(len(sw.seen)) {
		return 0, fmt.Errorf("reply seq %d outside the outstanding window [%d..%d]",
			got, sw.base, sw.base+uint32(len(sw.seen))-1)
	}
	if sw.seen[idx] {
		return 0, fmt.Errorf("duplicate reply for seq %d", got)
	}
	sw.seen[idx] = true
	sw.left--
	return int(idx), nil
}

// done checks the window completed: every outstanding seq was echoed
// exactly once.
func (sw *seqWindow) done() error {
	if sw.left != 0 {
		return fmt.Errorf("window incomplete: %d of %d replies missing", sw.left, len(sw.seen))
	}
	return nil
}

// peelSeqReply splits one reply frame into its echoed seq and trailing
// payload. ERR replies are reported as-is: the server never
// seq-prefixes them.
func peelSeqReply(f protocol.Frame) (uint32, []byte, error) {
	if protocol.Status(f.Code) == protocol.StatusErr {
		return 0, nil, fmt.Errorf("server error reply: %s", f.Payload)
	}
	return protocol.Seq(f.Payload)
}

// payload is what a connection puts on the wire: the key family and
// framing SET/GET/DEL are encoded in, and how a GET hit is verified.
// uint64 SETs write key*31+7. Bytes keys are the same universe as 8-byte
// big-endian encodings and values are runs of the fill byte key*31+7
// whose length is drawn from vs, so a hit must be a run of the key's
// fill byte (any length the server may have stored). Either way a
// reclamation bug that hands back a recycled or poisoned node is caught
// on the wire.
type payload struct {
	bytes, seq     bool
	vs             vsDist
	keyBuf, valBuf []byte // bytes only: per-connection encode scratch
}

func newPayload(useBytes, useSeq bool, vs vsDist) *payload {
	p := &payload{bytes: useBytes, seq: useSeq, vs: vs}
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

func (p *payload) set(w *protocol.Writer, rng *rand.Rand, seq uint32, key uint64) {
	var val []byte
	if p.bytes {
		val = p.valBuf[:p.vs.sample(rng)]
		fillValue(val, key)
	}
	switch {
	case p.bytes && p.seq:
		w.SetBSeq(seq, p.keyB(key), val)
	case p.bytes:
		w.SetB(p.keyB(key), val)
	case p.seq:
		w.SetSeq(seq, key, key*31+7)
	default:
		w.Set(key, key*31+7)
	}
}

func (p *payload) get(w *protocol.Writer, seq uint32, key uint64) {
	switch {
	case p.bytes && p.seq:
		w.GetBSeq(seq, p.keyB(key))
	case p.bytes:
		w.GetB(p.keyB(key))
	case p.seq:
		w.GetSeq(seq, key)
	default:
		w.Get(key)
	}
}

func (p *payload) del(w *protocol.Writer, seq uint32, key uint64) {
	switch {
	case p.bytes && p.seq:
		w.DelBSeq(seq, p.keyB(key))
	case p.bytes:
		w.DelB(p.keyB(key))
	case p.seq:
		w.DelSeq(seq, key)
	default:
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
// repeat until stop. Returns the completed-op count. With pl.seq the
// window is seq-framed and one latency sample is recorded per request
// (flush to that reply) instead of per window.
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
	rng := rand.New(rand.NewSource(int64(seed)*2654435761 + 1))
	w := protocol.NewWriter(c)
	rd := protocol.NewReader(c)
	if pl.seq {
		if err := negotiateSeq(w, rd); err != nil {
			started.Done()
			return 0, err
		}
	}
	keys := make([]uint64, pipeline)
	isGet := make([]bool, pipeline)
	var sw seqWindow
	started.Done()
	<-release

	ops := int64(0)
	var seq uint32
	for !stop.Load() {
		base := seq
		for p := 0; p < pipeline; p++ {
			key := uint64(rng.Int63n(int64(keyrange)))
			keys[p] = key
			roll := rng.Intn(100)
			isGet[p] = roll >= m.insertPct+m.deletePct
			switch {
			case roll < m.insertPct:
				pl.set(w, rng, seq, key)
			case !isGet[p]:
				pl.del(w, seq, key)
			default:
				pl.get(w, seq, key)
			}
			seq++
		}
		if pl.seq {
			sw.reset(base, pipeline)
		}
		t0 := time.Now()
		if err := w.Flush(); err != nil {
			return ops, err
		}
		for p := 0; p < pipeline; p++ {
			f, err := rd.ReadFrame()
			if err != nil {
				return ops, err
			}
			body := f.Payload
			idx := p
			if pl.seq {
				got, rest, err := peelSeqReply(f)
				if err != nil {
					return ops, err
				}
				if idx, err = sw.match(got); err != nil {
					return ops, err
				}
				body = rest
				h.Record(time.Since(t0))
			}
			switch protocol.Status(f.Code) {
			case protocol.StatusOK:
				if isGet[idx] {
					if err := pl.checkHit(body, keys[idx]); err != nil {
						return ops, err
					}
				}
			case protocol.StatusNil:
				// clean miss / already-present — expected under churn
			default:
				return ops, fmt.Errorf("server error reply: %s", f.Payload)
			}
		}
		if pl.seq {
			if err := sw.done(); err != nil {
				return ops, err
			}
		} else {
			h.Record(time.Since(t0))
		}
		ops += int64(pipeline)
	}
	return ops, nil
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
	pl := newPayload(useBytes, false, vs)
	const window = 256
	for sent := 0; sent < count; {
		n := count - sent
		if n > window {
			n = window
		}
		for i := 0; i < n; i++ {
			pl.set(w, rng, 0, uint64(rng.Int63n(int64(keyrange))))
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
