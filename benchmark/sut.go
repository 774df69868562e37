// sut.go is the only file of the benchmark that imports the system
// under test. Everything the harness calls is listed here, so a later
// change that shrinks an API can see exactly what must stay callable:
//
//	hyaline.NewKV, NewShardedKV, NewKVBytes, NewShardedKVBytes
//	    with the methods Get/Insert/Delete/Range, ApplyInto/ApplyBytesInto,
//	    Len, Live, Stats, InFlight (and Snapshot, which server.Store asks for)
//	hyaline.NewArena, New, NewMap, and the Tracker/Map/Flusher interfaces
//	ds.NewBytes (the low-level bytes structure, for the ds.blist probes)
//	arena.Arena: Alloc, Free, EnableBlobs, AllocBlob, Node
//	session.NewPool with Acquire/Release
//	server.New, NewBytes with zero-value server.Options, then
//	    Serve, Shutdown, Metrics, and the Store/BytesStore interfaces
//	protocol.NewWriter, NewReader, the Append* encoders, U64/KeyVal/KeyB/
//	    KeyValB decoders and the Status codes
//	metrics.NewRegistry with Counter and TimeHistogram
package main

import (
	"io"

	"hyaline"
	"hyaline/internal/ds"
	"hyaline/internal/metrics"
	"hyaline/internal/protocol"
	"hyaline/internal/server"
	"hyaline/internal/session"
)

type (
	kvT         = hyaline.KV
	kvOp        = hyaline.Op
	kvResult    = hyaline.Result
	bytesOp     = hyaline.BytesOp
	bytesResult = hyaline.BytesResult
	smrStats    = hyaline.Stats
	arenaT      = hyaline.Arena
	tracker     = hyaline.Tracker
	flusher     = hyaline.Flusher
	lowMap      = hyaline.Map
	lowRanger   = hyaline.Ranger

	u64Store   = server.Store
	bytesStore = server.BytesStore
	serverT    = server.Server

	wireWriter = protocol.Writer
	wireReader = protocol.Reader
	wireFrame  = protocol.Frame
)

const (
	kindGet    = hyaline.OpGet
	kindInsert = hyaline.OpInsert
	kindDelete = hyaline.OpDelete

	statusOK  = byte(protocol.StatusOK)
	statusNil = byte(protocol.StatusNil)

	wireGet  = byte(protocol.OpGet)
	wireSetB = byte(protocol.OpSetB)
)

var errServerClosed = server.ErrServerClosed

// The KV front-ends, built with zero-value options: the shipped defaults.

func newKV(structure, scheme string) (*kvT, error) {
	return hyaline.NewKV(structure, scheme, hyaline.KVOptions{})
}

func newShardedKV(structure, scheme string, shards int) (*hyaline.ShardedKV, error) {
	return hyaline.NewShardedKV(structure, scheme, shards, hyaline.KVOptions{})
}

func newKVBytes(structure, scheme string) (*hyaline.KVBytes, error) {
	return hyaline.NewKVBytes(structure, scheme, hyaline.KVOptions{})
}

func newShardedKVBytes(structure, scheme string, shards int) (*hyaline.ShardedKVBytes, error) {
	return hyaline.NewShardedKVBytes(structure, scheme, shards, hyaline.KVOptions{})
}

// The server, as the daemon ships it by default: a mode is measured
// when it becomes the default.

func newServer(store u64Store) *serverT        { return server.New(store, server.Options{}) }
func newBytesServer(store bytesStore) *serverT { return server.NewBytes(store, server.Options{}) }

// The explicit-tid API.

func newArena(capacity int) *arenaT { return hyaline.NewArena(capacity) }

func newTracker(scheme string, a *arenaT, threads int) (tracker, error) {
	return hyaline.New(scheme, a, hyaline.Options{MaxThreads: threads})
}

func newMap(structure string, a *arenaT, tr tracker, threads int) (lowMap, error) {
	return hyaline.NewMap(structure, a, tr, threads)
}

func newBytesMap(structure string, a *arenaT, tr tracker, threads int) (hyaline.BytesMap, error) {
	return ds.NewBytes(structure, a, tr, threads)
}

func newSessionPool(tr tracker, threads int) *session.Pool { return session.NewPool(tr, threads) }

func newRegistry() *metrics.Registry { return metrics.NewRegistry() }

// The wire codec. Plain functions, so the calls inline as they do in the
// server and the load generator.

func newWireWriter(dst io.Writer) *wireWriter { return protocol.NewWriter(dst) }
func newWireReader(src io.Reader) *wireReader { return protocol.NewReader(src) }

func appendGet(b []byte, key uint64) []byte      { return protocol.AppendGet(b, key) }
func appendSet(b []byte, key, val uint64) []byte { return protocol.AppendSet(b, key, val) }
func appendDel(b []byte, key uint64) []byte      { return protocol.AppendDel(b, key) }
func appendGetB(b, key []byte) []byte            { return protocol.AppendGetB(b, key) }
func appendSetB(b, key, val []byte) []byte       { return protocol.AppendSetB(b, key, val) }
func appendDelB(b, key []byte) []byte            { return protocol.AppendDelB(b, key) }
func appendOK(b []byte) []byte                   { return protocol.AppendOK(b) }
func appendNil(b []byte) []byte                  { return protocol.AppendNil(b) }
func appendValue(b []byte, v uint64) []byte      { return protocol.AppendValue(b, v) }

func wireU64(p []byte) (uint64, error)             { return protocol.U64(p) }
func wireKeyVal(p []byte) (uint64, uint64, error)  { return protocol.KeyVal(p) }
func wireKeyB(p []byte) ([]byte, error)            { return protocol.KeyB(p) }
func wireKeyValB(p []byte) ([]byte, []byte, error) { return protocol.KeyValB(p) }
