package server_test

import (
	"fmt"
	"testing"

	"hyaline"
	"hyaline/internal/protocol"
	"hyaline/internal/server"
)

// TestShardedStoreStats is the serving half of the dropped-Scans
// regression: a server over a 3-shard store — either key family — must
// report a non-zero Scans (and the shard count) in its STATS reply after
// wire-driven churn, and hyaline_kv_scans_total must be the sum of the
// per-shard series.
func TestShardedStoreStats(t *testing.T) {
	const shards, rounds, window = 3, 60, 32
	opts := hyaline.KVOptions{MaxThreads: 6, ArenaCap: 1 << 16}
	kv, err := hyaline.NewShardedKV("hashmap", "hyaline", shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	bkv, err := hyaline.NewShardedKVBytes("blist", "hyaline", shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		srv   *server.Server
		flush func()
		churn func(w *protocol.Writer, k uint64)
	}{
		{"uint64", server.New(kv, server.Options{}), kv.Flush, func(w *protocol.Writer, k uint64) {
			w.Set(k, k)
			w.Del(k)
		}},
		{"bytes", server.NewBytes(bkv, server.Options{}), bkv.Flush, func(w *protocol.Writer, k uint64) {
			key := []byte(fmt.Sprintf("key-%d", k))
			w.SetB(key, key)
			w.DelB(key)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			addr, _ := serve(t, c.srv)
			_, w, rd := dial(t, addr)
			for r := uint64(0); r < rounds; r++ {
				for i := uint64(0); i < window; i++ {
					c.churn(w, r*window+i)
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2*window; i++ {
					wantStatus(t, readFrame(t, rd), protocol.StatusOK)
				}
			}
			c.flush()
			w.Stats()
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			st, err := protocol.ParseStats(readFrame(t, rd).Payload)
			if err != nil {
				t.Fatal(err)
			}
			if st.Shards != shards || st.Scans == 0 || st.Retired < rounds*window || st.Len != 0 {
				t.Fatalf("STATS = %+v, want %d shards, Scans > 0, Retired >= %d, Len 0", st, shards, rounds*window)
			}
			reg := c.srv.Metrics()
			total, _ := reg.Value("hyaline_kv_scans_total")
			var sum float64
			for i := 0; i < shards; i++ {
				v, ok := reg.Value("hyaline_kv_shard_scans_total", "shard", fmt.Sprint(i))
				if !ok {
					t.Fatalf("no per-shard scans series for shard %d", i)
				}
				sum += v
			}
			if total <= 0 || total != sum {
				t.Fatalf("hyaline_kv_scans_total = %v, per-shard sum = %v", total, sum)
			}
		})
	}
}
