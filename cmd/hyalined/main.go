// Command hyalined serves one hyaline.KV over TCP using the
// internal/protocol frame format: a compact binary protocol with
// GET/SET/DEL/LEN/STATS/PING frames, pipelining-aware batching (a burst
// of in-flight commands on one connection is coalesced into a single
// batched apply — one session lease and one Enter/Leave bracket per
// pipeline window), and graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	hyalined -addr :4980 -structure hashmap -scheme hyaline
//	hyalined -addr 127.0.0.1:0 -scheme hyaline-1s -threads 16
//	hyalined -bytes -scheme hyaline          # []byte keys/values, GETB/SETB/DELB
//	hyalined -shards 8 -scheme hyaline       # hash-sharded KV, 8 partitions
//
// With -bytes the daemon serves a bytes-valued map (variable-size blob
// payloads carved from per-size-class slabs inside the same simulated
// unmanaged heap) and speaks the GETB/SETB/DELB frames; the uint64
// GET/SET/DEL data ops become protocol errors on such a server, and
// vice versa.
//
// Each connection's reader applies its own runs: brackets are shared
// within a pipeline window, never across connections.
//
// With -shards N the daemon serves a hash-sharded KV: N independent
// structure+tracker partitions over one node pool (and blob heap), each
// batch split and applied per shard concurrently. -arenacap and
// -blobbudget size that one pool for the whole store. -threads stays
// the total lease bound, divided across the shards (rounded up, so
// -shards above -threads still grants every shard one lease).
//
// With -poll idle connections park their descriptors in an OS
// readiness poller (epoll/kqueue) and are serviced by a pool of
// 2×GOMAXPROCS workers, so tens of thousands of mostly-idle connections
// cost O(GOMAXPROCS) goroutines. -maxconns caps concurrent connections;
// accepts beyond the cap are refused immediately.
//
// With -metrics ADDR the daemon serves an HTTP observability endpoint
// on a second listener: /metrics (Prometheus text exposition),
// /metrics.json (the raw registry snapshot) and the standard pprof
// profiles under /debug/pprof/. It drains after the KV server so a
// scraper can watch a shutdown to completion.
//
// The bound address is printed on startup (useful with port 0); drive it
// with cmd/hyalineload. The SIGINT/SIGTERM handler is installed before
// the listener is bound, so a signal sent once that line is out always
// drains. On SIGINT the server stops accepting, finishes
// every in-flight pipeline window, writes the pending replies and exits,
// reporting the drained connection count and the leased-session ledger
// (in-flight leases must be zero after a clean drain).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hyaline"
	"hyaline/internal/metrics"
	"hyaline/internal/metricshttp"
	"hyaline/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hyalined:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hyalined", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":4980", "TCP listen address (use port 0 for an ephemeral port)")
		structure = fs.String("structure", "hashmap", "data structure (list|hashmap|bonsai|natarajan|skiplist)")
		scheme    = fs.String("scheme", "hyaline", "reclamation scheme")
		threads   = fs.Int("threads", 0, "leased-tid bound (0 = 2x GOMAXPROCS); connections beyond it share leases")
		pipeline  = fs.Int("pipeline", server.DefaultMaxPipeline, "max in-flight commands coalesced into one batched apply per connection")
		arenaCap  = fs.Int("arenacap", 1<<22, "node pool capacity of the whole store, shared by every shard (virtual until touched)")
		drain     = fs.Duration("drain", 10*time.Second, "graceful shutdown budget before connections are closed forcibly")
		bytesMode = fs.Bool("bytes", false, "serve []byte keys/values (GETB/SETB/DELB frames, blob slab heap)")
		blobCap   = fs.Int("blobbudget", 1<<26, "per-size-class blob budget in bytes of the whole store, shared by every shard (-bytes only)")
		writeTO   = fs.Duration("writetimeout", server.DefaultWriteTimeout, "per-Write reply deadline; a peer that stops reading is disconnected (negative disables)")
		shards    = fs.Int("shards", 1, "hash-shard the KV across N independent structure+tracker partitions (0 or 1 = unsharded)")
		poll      = fs.Bool("poll", false, "park idle connections in an OS readiness poller (epoll/kqueue) served by 2x GOMAXPROCS workers, instead of a goroutine per connection")
		maxConns  = fs.Int("maxconns", 0, "cap on concurrently open connections; accepts beyond it are refused (0 = unlimited)")
		metricsAt = fs.String("metrics", "", "HTTP observability listen address: /metrics (Prometheus), /metrics.json, /debug/pprof/ (empty = disabled)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *threads < 0 {
		return fmt.Errorf("-threads %d: the leased-tid bound cannot be negative (0 = auto)", *threads)
	}
	if *pipeline < 1 {
		return fmt.Errorf("-pipeline %d: at least one command per batch", *pipeline)
	}
	if *shards < 0 {
		return fmt.Errorf("-shards %d: the shard count cannot be negative (0 or 1 = unsharded)", *shards)
	}
	if *maxConns < 0 {
		return fmt.Errorf("-maxconns %d: the connection cap cannot be negative (0 = unlimited)", *maxConns)
	}
	if *arenaCap < 1 {
		return fmt.Errorf("-arenacap %d: the node pool needs at least one node", *arenaCap)
	}
	if *blobCap < 1 {
		return fmt.Errorf("-blobbudget %d: the blob budget needs at least one byte", *blobCap)
	}
	if *drain < 0 {
		return fmt.Errorf("-drain %v: the shutdown budget cannot be negative", *drain)
	}
	nshards := *shards
	if nshards == 0 {
		nshards = 1
	}

	// The two key families expose the same serving surface; front is
	// whichever one the flags picked.
	type front interface {
		Structure() string
		Scheme() string
		MaxThreads() int
		Flush()
		Snapshot() hyaline.Snapshot
		InFlight() int
	}
	var (
		fr  front
		srv *server.Server
	)
	logger := log.New(os.Stderr, "hyalined: ", 0)
	reg := metrics.NewRegistry()
	metrics.RegisterProcess(reg)
	opts := server.Options{
		Metrics:      reg,
		MaxPipeline:  *pipeline,
		WriteTimeout: *writeTO,
		Poll:         *poll,
		MaxConns:     *maxConns,
		Logf:         logger.Printf,
	}
	kvopts := hyaline.KVOptions{
		MaxThreads:      *threads,
		ArenaCap:        *arenaCap,
		BlobClassBudget: *blobCap,
	}
	if *bytesMode {
		st := *structure
		if st == "hashmap" { // the uint64 default; bytes structures have their own
			st = "blist"
		}
		kv, err := hyaline.NewShardedKVBytes(st, *scheme, nshards, kvopts)
		if err != nil {
			return err
		}
		fr, srv = kv, server.NewBytes(kv, opts)
	} else {
		kv, err := hyaline.NewShardedKV(*structure, *scheme, nshards, kvopts)
		if err != nil {
			return err
		}
		fr, srv = kv, server.New(kv, opts)
	}
	// The handler goes in before the listener binds: a supervisor may
	// signal as soon as it reads "listening on", and a signal that beat
	// Notify would take its default action (kill, no drain) or, when
	// the daemon inherited SIGINT as ignored, be dropped.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	logger.Printf("listening on %s (structure=%s scheme=%s threads=%d shards=%d pipeline=%d bytes=%v poll=%v maxconns=%d)",
		ln.Addr(), fr.Structure(), fr.Scheme(), fr.MaxThreads(), fr.Snapshot().Shards, *pipeline, *bytesMode, *poll, *maxConns)

	// The observability endpoint rides its own listener so a scrape or a
	// profile can never contend with the serving port's accept loop.
	var msrv *http.Server
	if *metricsAt != "" {
		mln, err := net.Listen("tcp", *metricsAt)
		if err != nil {
			ln.Close()
			return fmt.Errorf("-metrics %s: %w", *metricsAt, err)
		}
		msrv = &http.Server{Handler: metricshttp.Handler(srv.Metrics())}
		logger.Printf("metrics on http://%s/metrics (also /metrics.json, /debug/pprof/)", mln.Addr())
		go func() {
			if err := msrv.Serve(mln); err != nil && err != http.ErrServerClosed {
				logger.Printf("metrics listener: %v", err)
			}
		}()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err // listener died underneath us
	case s := <-sig:
		logger.Printf("caught %v — draining connections (budget %v)", s, *drain)
	}

	_, activeBefore, _, _ := srv.Counters()
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	shutdownErr := srv.Shutdown(ctx)
	<-serveErr // Serve has returned ErrServerClosed by now
	if msrv != nil {
		// After the KV server: a scraper can watch the drain right to the
		// end, and the drain budget is not spent on lame-duck HTTP.
		if err := msrv.Shutdown(ctx); err != nil {
			msrv.Close()
		}
	}

	fr.Flush()
	accepted, _, served, batches := srv.Counters()
	snap := fr.Snapshot()
	logger.Printf("drained %d connections (accepted %d, served %d ops in %d apply batches)",
		activeBefore, accepted, served, batches)
	logger.Printf("kv: len=%d live=%d unreclaimed=%d, in-flight leases: %d",
		snap.Len, snap.Live, snap.Stats.Unreclaimed(), fr.InFlight())
	if shutdownErr != nil {
		return fmt.Errorf("drain budget exceeded: %w", shutdownErr)
	}
	if n := fr.InFlight(); n != 0 {
		return fmt.Errorf("%d session leases still in flight after drain", n)
	}
	return nil
}
