// metrics.go binds the server to internal/metrics: every server gauge
// lives in one Registry, so a live hyalined exposes over /metrics the
// same numbers its STATS reply and the server's tests read. Counters and
// histograms on the serve path keep the package's 0 allocs/op
// contract — the instruments are pre-registered here, never looked up
// per request.
package server

import (
	"strconv"

	"hyaline"
	"hyaline/internal/metrics"
)

// srvMetrics is the server's instrument set over one Registry.
type srvMetrics struct {
	reg *metrics.Registry

	// Serve-path counters (hot: incremented per frame/batch/write).
	served      *metrics.Counter // frames answered (data ops + meta)
	batches     *metrics.Counter // KV apply batches issued
	accepted    *metrics.Counter // connections accepted
	rejected    *metrics.Counter // accepts refused at MaxConns
	acceptRetry *metrics.Counter // transient accept errors retried
	bytesIn     *metrics.Counter // request bytes read off sockets
	bytesOut    *metrics.Counter // reply bytes written to sockets

	// Poller counters.
	pollWakeups  *metrics.Counter // readers the poller started for parked conns
	pollRearms   *metrics.Counter // conns parked after idling past their linger
	pollSpurious *metrics.Counter // woken readers that parked again frameless

	// Distributions.
	opLatency *metrics.Histogram // decode→reply-flushed, per op
	batchOps  *metrics.Histogram // ops per KV apply batch

	// Gauges.
	goroutines *metrics.Gauge // live server goroutines (readers, poller loop and sweep)
}

func newSrvMetrics(reg *metrics.Registry) *srvMetrics {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &srvMetrics{
		reg: reg,
		served: reg.Counter("hyaline_server_ops_total",
			"Frames answered: data ops plus meta commands."),
		batches: reg.Counter("hyaline_server_batches_total",
			"KV apply batches issued (one session bracket each)."),
		accepted: reg.Counter("hyaline_server_conns_accepted_total",
			"Connections accepted since start."),
		rejected: reg.Counter("hyaline_server_conns_rejected_total",
			"Accepts refused at the MaxConns cap."),
		acceptRetry: reg.Counter("hyaline_server_accept_retries_total",
			"Transient accept errors retried with backoff."),
		bytesIn: reg.Counter("hyaline_server_bytes_read_total",
			"Request bytes read off client sockets."),
		bytesOut: reg.Counter("hyaline_server_bytes_written_total",
			"Reply bytes written to client sockets."),
		pollWakeups: reg.Counter("hyaline_server_poll_wakeups_total",
			"Readers the poller started for parked connections that turned readable."),
		pollRearms: reg.Counter("hyaline_server_poll_rearms_total",
			"Connections parked in the poller after idling past the linger."),
		pollSpurious: reg.Counter("hyaline_server_poll_spurious_wakeups_total",
			"Readers started by the poller that parked again without a complete frame."),
		opLatency: reg.TimeHistogram("hyaline_server_op_latency_seconds",
			"Per-op serve latency, first decode to reply flushed."),
		batchOps: reg.SizeHistogram("hyaline_server_batch_ops",
			"Data ops per KV apply batch."),
		goroutines: reg.Gauge("hyaline_server_goroutines",
			"Live server goroutines: connection readers, the poller loop and, while busy connections are watched, its sweep."),
	}
}

// shardStatser is the optional per-shard stats surface; both hyaline
// store types provide it (one element when unsharded).
type shardStatser interface {
	ShardStats() []hyaline.Stats
}

// registerStoreMetrics publishes the storage-side gauges: map size,
// live arena nodes, the unreclaimed (limbo-depth) gauge the paper's
// robustness figures plot, and the cumulative reclamation counters —
// totals always, per shard when the store exposes shard stats. All are
// sampled at scrape time from the KV's own counters; the serve path
// pays nothing for them.
func (s *Server) registerStoreMetrics() {
	reg := s.m.reg
	reg.GaugeFunc("hyaline_kv_len",
		"Entries in the map (approximate under churn).",
		func() float64 { return float64(s.store.Len()) })
	reg.GaugeFunc("hyaline_kv_live_nodes",
		"Arena nodes currently allocated.",
		func() float64 { return float64(s.store.Snapshot().Live) })
	reg.GaugeFunc("hyaline_kv_unreclaimed_nodes",
		"Retired-but-not-freed nodes (limbo depth, the robustness gauge).",
		func() float64 { return float64(s.store.Snapshot().Stats.Unreclaimed()) })
	reg.CounterFunc("hyaline_kv_nodes_allocated_total",
		"Nodes handed out by the arenas.",
		func() float64 { return float64(s.store.Snapshot().Stats.Allocated) })
	reg.CounterFunc("hyaline_kv_nodes_retired_total",
		"Nodes retired to the reclamation scheme.",
		func() float64 { return float64(s.store.Snapshot().Stats.Retired) })
	reg.CounterFunc("hyaline_kv_nodes_freed_total",
		"Nodes returned to the arenas.",
		func() float64 { return float64(s.store.Snapshot().Stats.Freed) })
	reg.CounterFunc("hyaline_kv_scans_total",
		"Reclamation passes over the limbo/retire lists.",
		func() float64 { return float64(s.store.Snapshot().Stats.Scans) })

	ss, ok := s.store.(shardStatser)
	if !ok {
		return
	}
	nshards := len(ss.ShardStats())
	if nshards <= 1 {
		return // the totals above already are the one shard
	}
	shardStat := func(i int, f func(hyaline.Stats) int64) func() float64 {
		return func() float64 {
			st := ss.ShardStats()
			if i >= len(st) {
				return 0
			}
			return float64(f(st[i]))
		}
	}
	for i := 0; i < nshards; i++ {
		lbl := strconv.Itoa(i)
		reg.CounterFunc("hyaline_kv_shard_nodes_retired_total",
			"Nodes retired, per hash shard.",
			shardStat(i, func(st hyaline.Stats) int64 { return st.Retired }),
			"shard", lbl)
		reg.CounterFunc("hyaline_kv_shard_nodes_freed_total",
			"Nodes freed, per hash shard.",
			shardStat(i, func(st hyaline.Stats) int64 { return st.Freed }),
			"shard", lbl)
		reg.CounterFunc("hyaline_kv_shard_scans_total",
			"Reclamation passes, per hash shard.",
			shardStat(i, func(st hyaline.Stats) int64 { return st.Scans }),
			"shard", lbl)
		reg.GaugeFunc("hyaline_kv_shard_unreclaimed_nodes",
			"Limbo depth, per hash shard.",
			shardStat(i, func(st hyaline.Stats) int64 { return st.Unreclaimed() }),
			"shard", lbl)
	}
}

// registerConnMetrics publishes the connection gauges.
func (s *Server) registerConnMetrics() {
	reg := s.m.reg
	reg.GaugeFunc("hyaline_server_conns_open",
		"Currently open connections.",
		func() float64 {
			s.mu.Lock()
			n := len(s.conns)
			s.mu.Unlock()
			return float64(n)
		})
	reg.GaugeFunc("hyaline_server_conns_parked",
		"Connections parked in the readiness poller.",
		func() float64 { return float64(s.parkedConns()) })
	reg.GaugeFunc("hyaline_server_conns_active",
		"Open connections not parked in the poller.",
		func() float64 { return float64(s.ActiveConns()) })
}

// parkedConns counts connections sitting idle in the poller (0 without
// one).
func (s *Server) parkedConns() int64 {
	s.mu.Lock()
	po := s.po
	s.mu.Unlock()
	if po == nil {
		return 0
	}
	return po.count()
}

// ActiveConns reports open connections not parked in the poller — the
// connections a goroutine is (or is about to be) servicing. Without a
// poller every open connection is active.
func (s *Server) ActiveConns() int64 {
	s.mu.Lock()
	open := int64(len(s.conns))
	s.mu.Unlock()
	// The two reads are not one snapshot, so a conn torn down between
	// them could make the difference negative for a moment.
	return max(open-s.parkedConns(), 0)
}

// Metrics returns the server's registry, for mounting on an HTTP
// endpoint (metricshttp.Handler) or sampling in-process.
func (s *Server) Metrics() *metrics.Registry { return s.m.reg }
