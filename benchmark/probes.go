package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"
)

// A probe times direct calls into one layer's public functions from one
// goroutine: a fixed number of iterations, repeated probeReps times, the
// fastest repetition reported. Probes run in a process of their own so
// that a workload's heap and GC state do not reach them.

const probeReps = 5

// probe returns the nanoseconds one unit of work took in the fastest of
// probeReps runs of loop; units is how many units one run does.
func probe(units int, loop func()) float64 {
	best := time.Duration(-1)
	for rep := 0; rep < probeReps; rep++ {
		start := time.Now()
		loop()
		if d := time.Since(start); best < 0 || d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(units)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// The sizes the probes share with the workloads they explain.
const (
	probeKeyRange   = 100_000
	probePrefill    = 50_000
	probeBytesRange = 256
	probeBytesFill  = 128
	probeValueLen   = 64
	probeWindow     = 32
)

var probeSpec = spec{keyRange: probeKeyRange, prefill: probePrefill}
var probeBytesSpec = spec{keyRange: probeBytesRange, prefill: probeBytesFill}

// runProbes returns every probe metric by name.
func runProbes() (map[string]float64, error) {
	runtime.GOMAXPROCS(1)
	out := map[string]float64{}
	for _, group := range []func(map[string]float64) error{
		probeProtocol, probeKV, probeKVBytes, probeSession, probeSMR, probeDS, probeBlist, probeArena, probeMetrics,
	} {
		if err := group(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// probeProtocol pushes a 32-op window through the codec over in-memory
// buffers: no socket, no server.
func probeProtocol(out map[string]float64) error {
	const rounds = 10_000
	r := newRng(1, 0)
	keys := make([]uint64, probeWindow)
	for i := range keys {
		keys[i] = r.next() % probeKeyRange
	}

	w := newWireWriter(io.Discard)
	var flushErr error
	out["protocol.encode_req_ns_per_op"] = probe(rounds*probeWindow, func() {
		for n := 0; n < rounds; n++ {
			for i, k := range keys {
				switch i % 3 {
				case 0:
					w.Get(k)
				case 1:
					w.Set(k, valueOf(k))
				default:
					w.Del(k)
				}
			}
			if err := w.Flush(); err != nil {
				flushErr = err
			}
		}
	})
	if flushErr != nil {
		return flushErr
	}

	var reqs, replies, reqsB []byte
	var kbuf [8]byte
	val := fillValue(make([]byte, maxValueLen), 0x5a, probeValueLen)
	for i, k := range keys {
		key := putKey(&kbuf, k)
		switch i % 3 {
		case 0:
			reqs, reqsB = appendGet(reqs, k), appendGetB(reqsB, key)
			replies = appendValue(replies, valueOf(k))
		case 1:
			reqs, reqsB = appendSet(reqs, k, valueOf(k)), appendSetB(reqsB, key, val)
			replies = appendOK(replies)
		default:
			reqs, reqsB = appendDel(reqs, k), appendDelB(reqsB, key)
			replies = appendNil(replies)
		}
	}
	var src bytes.Reader
	rd := newWireReader(&src)
	var sink uint64
	var decodeErr error
	// decode reads the window back frame by frame and parses each
	// payload the way its receiver does.
	decode := func(window []byte, parse func(f wireFrame) error) func() {
		return func() {
			for n := 0; n < rounds; n++ {
				src.Reset(window)
				rd.Reset(&src)
				for i := 0; i < probeWindow; i++ {
					f, err := rd.ReadFrame()
					if err == nil {
						err = parse(f)
					}
					if err != nil {
						decodeErr = err
					}
				}
			}
		}
	}
	out["protocol.decode_req_ns_per_op"] = probe(rounds*probeWindow, decode(reqs, func(f wireFrame) error {
		if f.Code == wireGet || len(f.Payload) == 8 {
			k, err := wireU64(f.Payload)
			sink += k
			return err
		}
		k, v, err := wireKeyVal(f.Payload)
		sink += k + v
		return err
	}))
	out["protocol.decode_reply_ns_per_op"] = probe(rounds*probeWindow, decode(replies, func(f wireFrame) error {
		if f.Code == statusOK && len(f.Payload) == 8 {
			v, err := wireU64(f.Payload)
			sink += v
			return err
		}
		return nil
	}))
	out["protocol.decode_reqb_ns_per_op"] = probe(rounds*probeWindow, decode(reqsB, func(f wireFrame) error {
		if f.Code == wireSetB {
			k, v, err := wireKeyValB(f.Payload)
			sink += uint64(len(k) + len(v))
			return err
		}
		k, err := wireKeyB(f.Payload)
		sink += uint64(len(k))
		return err
	}))
	if decodeErr != nil {
		return decodeErr
	}

	buf := make([]byte, 0, 4096)
	out["protocol.encode_reply_ns_per_op"] = probe(rounds*probeWindow, func() {
		for n := 0; n < rounds; n++ {
			buf = buf[:0]
			for i, k := range keys {
				switch i % 3 {
				case 0:
					buf = appendValue(buf, valueOf(k))
				case 1:
					buf = appendOK(buf)
				default:
					buf = appendNil(buf)
				}
			}
		}
	})
	if sink == 0 || len(buf) == 0 {
		return fmt.Errorf("protocol probes decoded nothing")
	}
	return nil
}

// writeBatches returns rounds batches of size ops, half inserts and
// half deletes over the key range: the paper's write-heavy mix.
func writeBatches(rounds, size int) [][]kvOp {
	r := newRng(1, 1)
	batches := make([][]kvOp, rounds)
	for n := range batches {
		batches[n] = make([]kvOp, size)
		for i := range batches[n] {
			k := r.next() % probeKeyRange
			if r.next()%2 == 0 {
				batches[n][i] = kvOp{Kind: kindInsert, Key: k, Val: valueOf(k)}
			} else {
				batches[n][i] = kvOp{Kind: kindDelete, Key: k}
			}
		}
	}
	return batches
}

func probeKV(out map[string]float64) error {
	kv, err := newKV("hashmap", "hyaline")
	if err != nil {
		return err
	}
	prefillKeys(&probeSpec, 1, func(key uint64) bool { return kv.Insert(key, valueOf(key)) })

	const gets = 100_000
	r := newRng(1, 2)
	keys := make([]uint64, gets)
	for i := range keys {
		keys[i] = r.next() % probeKeyRange
	}
	var sink uint64
	getAll := func() {
		for _, k := range keys {
			v, _ := kv.Get(k)
			sink += v
		}
	}
	out["kv.get_ns"] = probe(gets, getAll)
	before := mallocs()
	getAll()
	out["kv.get_allocs_per_kop"] = float64(mallocs()-before) * 1000 / gets

	res := make([]kvResult, 0, probeWindow)
	apply := func(store u64Store, batches [][]kvOp) func() {
		return func() {
			for _, b := range batches {
				res = store.ApplyInto(res[:0], b)
			}
		}
	}
	const ops = 64_000
	out["kv.apply_b1_ns_per_op"] = probe(ops, apply(kv, writeBatches(ops, 1)))
	out["kv.apply_b32_ns_per_op"] = probe(ops, apply(kv, writeBatches(ops/probeWindow, probeWindow)))

	skv, err := newShardedKV("hashmap", "hyaline", 2)
	if err != nil {
		return err
	}
	prefillKeys(&probeSpec, 1, func(key uint64) bool { return skv.Insert(key, valueOf(key)) })
	out["kvshard.apply_b32_ns_per_op"] = probe(ops, apply(skv, writeBatches(ops/probeWindow, probeWindow)))

	sl, err := newKV("skiplist", "hyaline")
	if err != nil {
		return err
	}
	prefillKeys(&probeSpec, 1, func(key uint64) bool { return sl.Insert(key, valueOf(key)) })
	const scans = 2_000
	var visited int
	var scanErr error
	scan := func() {
		visited = 0
		for _, lo := range keys[:scans] {
			if err := sl.Range(lo, lo+63, func(k, v uint64) bool { visited++; sink += v; return true }); err != nil {
				scanErr = err
			}
		}
	}
	scan() // count the keys one pass visits: the same on every pass
	if scanErr != nil || visited == 0 {
		return fmt.Errorf("kv.range probe visited %d keys: %v", visited, scanErr)
	}
	out["kv.range_ns_per_key"] = probe(visited, scan)
	if sink == 0 {
		return fmt.Errorf("kv probes read nothing")
	}
	return nil
}

// bytesBatches returns rounds batches of 16 bytes ops, 70% GET, 15%
// SET, 15% DEL over 256 keys, 64-byte values: serve_bytes' mix without
// its large values.
func bytesBatches(rounds int) [][]bytesOp {
	const size = 16
	r := newRng(1, 3)
	val := fillValue(make([]byte, probeValueLen), 0x5a, probeValueLen)
	batches := make([][]bytesOp, rounds)
	for n := range batches {
		batches[n] = make([]bytesOp, size)
		for i := range batches[n] {
			var kbuf [8]byte
			key := putKey(&kbuf, r.next()%probeBytesRange)
			switch mix := r.next() % 100; {
			case mix < 70:
				batches[n][i] = bytesOp{Kind: kindGet, Key: key}
			case mix < 85:
				batches[n][i] = bytesOp{Kind: kindInsert, Key: key, Val: val}
			default:
				batches[n][i] = bytesOp{Kind: kindDelete, Key: key}
			}
		}
	}
	return batches
}

func probeKVBytes(out map[string]float64) error {
	const rounds = 2_000
	batches := bytesBatches(rounds)
	var res []bytesResult
	var vbuf []byte
	apply := func(store bytesStore) func() {
		return func() {
			for _, b := range batches {
				res, vbuf = store.ApplyBytesInto(res[:0], vbuf[:0], b)
			}
		}
	}
	var kbuf [8]byte
	val := fillValue(make([]byte, probeValueLen), 0x5a, probeValueLen)
	kvb, err := newKVBytes("blist", "hyaline")
	if err != nil {
		return err
	}
	prefillKeys(&probeBytesSpec, 1, func(key uint64) bool { return kvb.Insert(putKey(&kbuf, key), val) })
	out["kvbytes.apply_b16_ns_per_op"] = probe(rounds*16, apply(kvb))

	skvb, err := newShardedKVBytes("blist", "hyaline", 2)
	if err != nil {
		return err
	}
	prefillKeys(&probeBytesSpec, 1, func(key uint64) bool { return skvb.Insert(putKey(&kbuf, key), val) })
	out["kvshardbytes.apply_b16_ns_per_op"] = probe(rounds*16, apply(skvb))
	return nil
}

func probeSession(out map[string]float64) error {
	tr, err := newTracker("hyaline", newArena(1<<10), 2)
	if err != nil {
		return err
	}
	pool := newSessionPool(tr, 2)
	const n = 400_000
	out["session.acquire_release_ns"] = probe(n, func() {
		for i := 0; i < n; i++ {
			pool.Release(pool.Acquire())
		}
	})
	return nil
}

func probeSMR(out map[string]float64) error {
	for _, scheme := range []string{"hyaline", "hyaline-s", "epoch"} {
		a := newArena(1 << 20)
		tr, err := newTracker(scheme, a, 1)
		if err != nil {
			return err
		}
		const brackets = 400_000
		out["smr."+scheme+".enter_leave_ns"] = probe(brackets, func() {
			for i := 0; i < brackets; i++ {
				tr.Enter(0)
				tr.Leave(0)
			}
		})
		// One bracket around 64 allocate-and-retire pairs: the retire
		// pipeline with the bracket amortised away.
		const rounds, nodes = 1_000, 64
		out["smr."+scheme+".alloc_retire_ns"] = probe(rounds*nodes, func() {
			for i := 0; i < rounds; i++ {
				tr.Enter(0)
				for j := 0; j < nodes; j++ {
					tr.Retire(0, tr.Alloc(0))
				}
				tr.Leave(0)
			}
		})
	}
	return nil
}

// probeDS times the structures on the explicit-tid API, one thread:
// hyaline minus leaky is the reclamation overhead, the paper's own
// baseline method.
func probeDS(out map[string]float64) error {
	const n = 100_000
	r := newRng(1, 4)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = r.next() % probeKeyRange
	}
	var sink uint64
	for _, c := range []struct {
		structure, scheme string
		n                 int // calls per repetition: fewer on the slower structure
	}{
		{"hashmap", "leaky", n}, {"hashmap", "hyaline", n}, {"skiplist", "hyaline", n / 8},
	} {
		keys := keys[:c.n]
		// Leaky never frees: room for every insert of every repetition.
		a := newArena(1 << 21)
		tr, err := newTracker(c.scheme, a, 1)
		if err != nil {
			return err
		}
		m, err := newMap(c.structure, a, tr, 1)
		if err != nil {
			return err
		}
		prefillKeys(&probeSpec, 1, func(key uint64) bool {
			tr.Enter(0)
			defer tr.Leave(0)
			return m.Insert(0, key, valueOf(key))
		})
		prefix := "ds." + c.structure + "."
		out[prefix+"get_ns."+c.scheme] = probe(c.n, func() {
			for _, k := range keys {
				tr.Enter(0)
				v, _ := m.Get(0, k)
				tr.Leave(0)
				sink += v
			}
		})
		out[prefix+"insdel_ns."+c.scheme] = probe(c.n, func() {
			for i, k := range keys {
				tr.Enter(0)
				if i%2 == 0 {
					m.Insert(0, k, valueOf(k))
				} else {
					m.Delete(0, k)
				}
				tr.Leave(0)
			}
		})
		if rg, ok := m.(lowRanger); ok {
			const scans = 2_000
			var visited int
			scan := func() {
				visited = 0
				for _, lo := range keys[:scans] {
					tr.Enter(0)
					rg.Range(0, lo, lo+63, func(k, v uint64) bool { visited++; sink += v; return true })
					tr.Leave(0)
				}
			}
			scan()
			if visited == 0 {
				return fmt.Errorf("ds.%s range probe visited no keys", c.structure)
			}
			out[prefix+"range_ns_per_key."+c.scheme] = probe(visited, scan)
		}
	}
	if sink == 0 {
		return fmt.Errorf("ds probes read nothing")
	}
	return nil
}

func probeBlist(out map[string]float64) error {
	a := newArena(1 << 20)
	a.EnableBlobs(1 << 24)
	tr, err := newTracker("hyaline", a, 1)
	if err != nil {
		return err
	}
	m, err := newBytesMap("blist", a, tr, 1)
	if err != nil {
		return err
	}
	var kbuf [8]byte
	val := fillValue(make([]byte, probeValueLen), 0x5a, probeValueLen)
	prefillKeys(&probeBytesSpec, 1, func(key uint64) bool {
		tr.Enter(0)
		defer tr.Leave(0)
		return m.Insert(0, putKey(&kbuf, key), val)
	})
	const n = 20_000
	r := newRng(1, 5)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = r.next() % probeBytesRange
	}
	var dst []byte
	out["ds.blist.get_ns.hyaline"] = probe(n, func() {
		for _, k := range keys {
			tr.Enter(0)
			dst, _ = m.Get(0, putKey(&kbuf, k), dst[:0])
			tr.Leave(0)
		}
	})
	out["ds.blist.insdel_ns.hyaline"] = probe(n, func() {
		for i, k := range keys {
			tr.Enter(0)
			if i%2 == 0 {
				m.Insert(0, putKey(&kbuf, k), val)
			} else {
				m.Delete(0, putKey(&kbuf, k))
			}
			tr.Leave(0)
		}
	})
	return nil
}

func probeArena(out map[string]float64) error {
	const n = 200_000
	a := newArena(1 << 16)
	out["arena.alloc_free_ns"] = probe(n, func() {
		for i := 0; i < n; i++ {
			a.Free(0, a.Alloc(0))
		}
	})
	// A blob lives and dies with the node that owns it, so the unit is
	// a node carrying one blob of the given size.
	b := newArena(1 << 16)
	b.EnableBlobs(1 << 24)
	for _, size := range []int{64, 4096} {
		payload := make([]byte, size)
		n := n * 64 / (64 + size) // about the same time per repetition
		out[fmt.Sprintf("arena.blob_alloc_free_ns.%d", size)] = probe(n, func() {
			for i := 0; i < n; i++ {
				idx := b.Alloc(0)
				node := b.Node(idx)
				node.Key.Store(uint64(b.AllocBlob(payload)))
				node.Val.Store(0)
				b.Free(0, idx)
			}
		})
	}
	return nil
}

// probeMetrics times the two instruments on the serve path: the budget
// any observability change spends per request.
func probeMetrics(out map[string]float64) error {
	reg := newRegistry()
	c := reg.Counter("probe_total", "probe")
	h := reg.TimeHistogram("probe_seconds", "probe")
	const n = 500_000
	out["metrics.counter_add_ns"] = probe(n, func() {
		for i := 0; i < n; i++ {
			c.Add(1)
		}
	})
	out["metrics.hist_observe_ns"] = probe(n, func() {
		for i := 0; i < n; i++ {
			h.Observe(time.Duration(i&0xffff) * time.Nanosecond)
		}
	})
	if c.Value() == 0 {
		return fmt.Errorf("metrics probes counted nothing")
	}
	return nil
}
