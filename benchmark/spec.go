package main

import "time"

// family is the shape of a workload: what is built and how it is driven.
type family int

const (
	servedU64   family = iota // uint64 KV behind the TCP server
	servedBytes               // sharded bytes KV behind the TCP server
	inprocKV                  // public hyaline.KV called in-process
	inprocLib                 // explicit-tid tracker + structure
)

// spec is one workload. Every field is a constant of the benchmark: the
// same on both sides of any later comparison.
type spec struct {
	name      string
	why       string
	fam       family
	structure string
	scheme    string
	shards    int
	procs     int // GOMAXPROCS while it runs
	clients   int // connections or goroutines, closed loop
	window    int // operations per latency sample: the pipeline depth, or a burst of calls in-process
	getPct    int
	setPct    int
	delPct    int // the rest, up to 100, are range scans
	keyRange  uint64
	prefill   int
	scanSpan  uint64
	stalled   int
}

func (sp *spec) served() bool { return sp.fam == servedU64 || sp.fam == servedBytes }

// Constants of every run. Load never uses more clients than the two
// cores of the box the benchmark was sized on.
const (
	numClients     = 2
	numSlices      = 5
	warmup         = time.Second
	sampleEvery    = 5 * time.Millisecond // unreclaimed gauge
	defaultSeconds = 15                   // run_seconds in BENCHMARK.json
	defaultSeed    = 1
	setupRounds    = 9 // set-ups timed per run; setup_s is their median
	traceSampleOps = 64
)

var workloads = []spec{
	{
		name: "serve_single",
		why:  "pipeline 1, 90% GET: per-request overhead (syscalls, frame decode, conn loop, one lease and bracket per op) does almost all the work",
		fam:  servedU64, structure: "hashmap", scheme: "hyaline",
		procs: 1, clients: numClients, window: 1,
		getPct: 90, setPct: 5, delPct: 5,
		keyRange: 100_000, prefill: 50_000,
	},
	{
		name: "serve_pipe",
		why:  "pipeline 32, 50% SET / 50% DEL: per-request cost is amortised 32x, so codec, ApplyInto, hashmap and Alloc/Retire/free do the work",
		fam:  servedU64, structure: "hashmap", scheme: "hyaline",
		procs: 1, clients: numClients, window: 32,
		getPct: 0, setPct: 50, delPct: 50,
		keyRange: 100_000, prefill: 50_000,
	},
	{
		name: "serve_bytes",
		why:  "bytes keys and bimodal values on a 2-shard blist, pipeline 16: the bytes, shard-split and blob-slab path a u64 gain must not cost",
		fam:  servedBytes, structure: "blist", scheme: "hyaline", shards: 2,
		procs: 1, clients: numClients, window: 16,
		getPct: 70, setPct: 15, delPct: 15,
		keyRange: 256, prefill: 128,
	},
	{
		name: "kv_mixed",
		why:  "in-process hyaline.KV on a skiplist, singleton calls with 4% range scans: the lease-per-operation path, no server or protocol",
		fam:  inprocKV, structure: "skiplist", scheme: "hyaline",
		procs: 2, clients: numClients, window: 32,
		getPct: 80, setPct: 8, delPct: 8,
		keyRange: 100_000, prefill: 50_000, scanSpan: 64,
	},
	{
		name: "lib_stalled",
		why:  "the paper's stalled-thread experiment on the explicit-tid API: hashmap over hyaline-s, 50/50 insert/delete, one thread parked inside an operation",
		fam:  inprocLib, structure: "hashmap", scheme: "hyaline-s",
		procs: 2, clients: numClients, window: 64,
		getPct: 0, setPct: 50, delPct: 50,
		keyRange: 100_000, prefill: 50_000, stalled: 1,
	},
}

func findWorkload(name string) *spec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef mirrors one entry of BENCHMARK.json; a test keeps the two
// equal. bound is 0 for per-layer metrics.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.20},
	{"p50_us", "us", "lower", 0.20},
	{"live_nodes_peak", "nodes", "lower", 0.10},
	{"rss_peak_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the ledger: one cost per step a request crosses. Names are
// workload-free because a traced run of any workload reports all of
// them; a layer the workload does not cross reads 0.
var perLayer = []metricDef{
	// Traced run of a served workload.
	{name: "server.rtt_ns_per_op", unit: "ns/op", better: "lower"},
	{name: "server.busy_ns_per_op", unit: "ns/op", better: "lower"},
	{name: "server.apply_ns_per_op", unit: "ns/op", better: "lower"},
	{name: "server.sock_write_ns_per_op", unit: "ns/op", better: "lower"},
	{name: "server.residual_ns_per_op", unit: "ns/op", better: "lower"},
	{name: "server.ops_per_apply", unit: "count", better: "higher"},
	{name: "server.read_calls_per_op", unit: "count", better: "lower"},
	{name: "server.write_calls_per_op", unit: "count", better: "lower"},
	{name: "server.wire_bytes_per_op", unit: "B/op", better: "lower"},
	{name: "server.allocs_per_kop", unit: "1/kop", better: "lower"},
	{name: "client.encode_ns_per_op", unit: "ns/op", better: "lower"},
	{name: "client.sock_write_ns_per_op", unit: "ns/op", better: "lower"},
	{name: "client.decode_ns_per_op", unit: "ns/op", better: "lower"},
	// Every workload: the tail of the untraced window's latency samples.
	{name: "client.p99_us", unit: "us", better: "lower"},
	// Traced run of an in-process workload: one call in 64 is timed.
	{name: "inproc.get_ns", unit: "ns", better: "lower"},
	{name: "inproc.insert_ns", unit: "ns", better: "lower"},
	{name: "inproc.delete_ns", unit: "ns", better: "lower"},
	{name: "inproc.range_ns_per_key", unit: "ns/key", better: "lower"},
	// Stats() deltas over the untraced window of the workload.
	{name: "smr.retired_per_kop", unit: "1/kop", better: "lower"},
	{name: "smr.scans_per_kop", unit: "1/kop", better: "lower"},
	{name: "smr.freed_per_scan", unit: "count", better: "higher"},
	{name: "smr.unreclaimed_avg", unit: "nodes", better: "lower"},
	{name: "smr.unreclaimed_peak", unit: "nodes", better: "lower"},
	{name: "proc.rss_growth_mb", unit: "MB", better: "lower"},
	{name: "trace.overhead_frac", unit: "frac", better: "lower"},
	// Probes: one goroutine, direct calls, the same in every workload.
	{name: "protocol.encode_req_ns_per_op", unit: "ns/op", better: "lower"},
	{name: "protocol.decode_req_ns_per_op", unit: "ns/op", better: "lower"},
	{name: "protocol.encode_reply_ns_per_op", unit: "ns/op", better: "lower"},
	{name: "protocol.decode_reply_ns_per_op", unit: "ns/op", better: "lower"},
	{name: "protocol.decode_reqb_ns_per_op", unit: "ns/op", better: "lower"},
	{name: "kv.get_ns", unit: "ns", better: "lower"},
	{name: "kv.get_allocs_per_kop", unit: "1/kop", better: "lower"},
	{name: "kv.apply_b1_ns_per_op", unit: "ns/op", better: "lower"},
	{name: "kv.apply_b32_ns_per_op", unit: "ns/op", better: "lower"},
	{name: "kv.range_ns_per_key", unit: "ns/key", better: "lower"},
	{name: "kvshard.apply_b32_ns_per_op", unit: "ns/op", better: "lower"},
	{name: "kvbytes.apply_b16_ns_per_op", unit: "ns/op", better: "lower"},
	{name: "kvshardbytes.apply_b16_ns_per_op", unit: "ns/op", better: "lower"},
	{name: "session.acquire_release_ns", unit: "ns", better: "lower"},
	{name: "smr.hyaline.enter_leave_ns", unit: "ns", better: "lower"},
	{name: "smr.hyaline.alloc_retire_ns", unit: "ns", better: "lower"},
	{name: "smr.hyaline-s.enter_leave_ns", unit: "ns", better: "lower"},
	{name: "smr.hyaline-s.alloc_retire_ns", unit: "ns", better: "lower"},
	{name: "smr.epoch.enter_leave_ns", unit: "ns", better: "lower"},
	{name: "smr.epoch.alloc_retire_ns", unit: "ns", better: "lower"},
	{name: "ds.hashmap.get_ns.leaky", unit: "ns", better: "lower"},
	{name: "ds.hashmap.get_ns.hyaline", unit: "ns", better: "lower"},
	{name: "ds.hashmap.insdel_ns.leaky", unit: "ns", better: "lower"},
	{name: "ds.hashmap.insdel_ns.hyaline", unit: "ns", better: "lower"},
	{name: "ds.skiplist.get_ns.hyaline", unit: "ns", better: "lower"},
	{name: "ds.skiplist.insdel_ns.hyaline", unit: "ns", better: "lower"},
	{name: "ds.skiplist.range_ns_per_key.hyaline", unit: "ns/key", better: "lower"},
	{name: "ds.blist.get_ns.hyaline", unit: "ns", better: "lower"},
	{name: "ds.blist.insdel_ns.hyaline", unit: "ns", better: "lower"},
	{name: "arena.alloc_free_ns", unit: "ns", better: "lower"},
	{name: "arena.blob_alloc_free_ns.64", unit: "ns", better: "lower"},
	{name: "arena.blob_alloc_free_ns.4096", unit: "ns", better: "lower"},
	{name: "metrics.counter_add_ns", unit: "ns", better: "lower"},
	{name: "metrics.hist_observe_ns", unit: "ns", better: "lower"},
}
