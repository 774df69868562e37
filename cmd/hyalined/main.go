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
// Every connection has a reader goroutine while it has work. One that
// idles past a short linger parks its descriptor in an OS readiness
// poller (epoll; other platforms keep every reader) and gives the
// goroutine up, so tens of thousands of idle connections cost one
// goroutine. -maxconns caps
// concurrent connections; accepts beyond the cap are refused
// immediately.
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

// flags are hyalined's command-line knobs, bound to the flag set newFlags
// builds with them.
type flags struct {
	addr, structure, scheme, metricsAt                     *string
	threads, pipeline, arenaCap, blobCap, shards, maxConns *int
	drain, writeTO                                         *time.Duration
	bytesMode                                              *bool
}

// newFlags builds hyalined's flag set; the README flag check reads it too.
func newFlags() (*flag.FlagSet, *flags) {
	fs := flag.NewFlagSet("hyalined", flag.ContinueOnError)
	return fs, &flags{
		addr:      fs.String("addr", ":4980", "TCP listen address (use port 0 for an ephemeral port)"),
		structure: fs.String("structure", "hashmap", "data structure (list|hashmap|bonsai|natarajan|skiplist)"),
		scheme:    fs.String("scheme", "hyaline", "reclamation scheme"),
		threads:   fs.Int("threads", 0, "leased-tid bound (0 = 2x GOMAXPROCS); connections beyond it share leases"),
		pipeline:  fs.Int("pipeline", server.DefaultMaxPipeline, "max in-flight commands coalesced into one batched apply per connection"),
		arenaCap:  fs.Int("arenacap", 1<<22, "node pool capacity of the whole store, shared by every shard (virtual until touched)"),
		drain:     fs.Duration("drain", 10*time.Second, "graceful shutdown budget before connections are closed forcibly"),
		bytesMode: fs.Bool("bytes", false, "serve []byte keys/values (GETB/SETB/DELB frames, blob slab heap)"),
		blobCap:   fs.Int("blobbudget", 1<<26, "per-size-class blob budget in bytes of the whole store, shared by every shard (-bytes only)"),
		writeTO:   fs.Duration("writetimeout", server.DefaultWriteTimeout, "per-Write reply deadline; a peer that stops reading is disconnected (negative disables)"),
		shards:    fs.Int("shards", 1, "hash-shard the KV across N independent structure+tracker partitions (0 or 1 = unsharded)"),
		maxConns:  fs.Int("maxconns", 0, "cap on concurrently open connections; accepts beyond it are refused (0 = unlimited)"),
		metricsAt: fs.String("metrics", "", "HTTP observability listen address: /metrics (Prometheus), /metrics.json, /debug/pprof/ (empty = disabled)"),
	}
}

func run(args []string) error {
	fs, fl := newFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *fl.threads < 0:
		return fmt.Errorf("-threads %d: the leased-tid bound cannot be negative (0 = auto)", *fl.threads)
	case *fl.pipeline < 1:
		return fmt.Errorf("-pipeline %d: at least one command per batch", *fl.pipeline)
	case *fl.shards < 0:
		return fmt.Errorf("-shards %d: the shard count cannot be negative (0 or 1 = unsharded)", *fl.shards)
	case *fl.maxConns < 0:
		return fmt.Errorf("-maxconns %d: the connection cap cannot be negative (0 = unlimited)", *fl.maxConns)
	case *fl.arenaCap < 1:
		return fmt.Errorf("-arenacap %d: the node pool needs at least one node", *fl.arenaCap)
	case *fl.blobCap < 1:
		return fmt.Errorf("-blobbudget %d: the blob budget needs at least one byte", *fl.blobCap)
	case *fl.drain < 0:
		return fmt.Errorf("-drain %v: the shutdown budget cannot be negative", *fl.drain)
	}
	nshards := max(*fl.shards, 1) // 0 means unsharded

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
		MaxPipeline:  *fl.pipeline,
		WriteTimeout: *fl.writeTO,
		MaxConns:     *fl.maxConns,
		Logf:         logger.Printf,
	}
	kvopts := hyaline.KVOptions{
		MaxThreads:      *fl.threads,
		ArenaCap:        *fl.arenaCap,
		BlobClassBudget: *fl.blobCap,
	}
	if *fl.bytesMode {
		st := *fl.structure
		if st == "hashmap" { // the uint64 default; bytes structures have their own
			st = "blist"
		}
		kv, err := hyaline.NewShardedKVBytes(st, *fl.scheme, nshards, kvopts)
		if err != nil {
			return err
		}
		fr, srv = kv, server.NewBytes(kv, opts)
	} else {
		kv, err := hyaline.NewShardedKV(*fl.structure, *fl.scheme, nshards, kvopts)
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
	ln, err := net.Listen("tcp", *fl.addr)
	if err != nil {
		return err
	}

	logger.Printf("listening on %s (structure=%s scheme=%s threads=%d shards=%d pipeline=%d bytes=%v maxconns=%d)",
		ln.Addr(), fr.Structure(), fr.Scheme(), fr.MaxThreads(), fr.Snapshot().Shards, *fl.pipeline, *fl.bytesMode, *fl.maxConns)

	// The observability endpoint rides its own listener so a scrape or a
	// profile can never contend with the serving port's accept loop.
	var msrv *http.Server
	if *fl.metricsAt != "" {
		mln, err := net.Listen("tcp", *fl.metricsAt)
		if err != nil {
			ln.Close()
			return fmt.Errorf("-metrics %s: %w", *fl.metricsAt, err)
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
		logger.Printf("caught %v — draining connections (budget %v)", s, *fl.drain)
	}

	_, activeBefore, _, _ := srv.Counters()
	ctx, cancel := context.WithTimeout(context.Background(), *fl.drain)
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
