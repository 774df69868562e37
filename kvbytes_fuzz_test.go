package hyaline_test

import (
	"bytes"
	"testing"

	"hyaline"
)

// FuzzKVBytesApply decodes the fuzz input as a stream of bytes-KV
// commands, applies them through ApplyBytes, and checks every result
// against a map[string][]byte model. Single-threaded applies are
// deterministic, so the model is exact — any divergence is a bug in the
// bytes list, the blob slabs, or the batch plumbing.
//
// The first input byte picks the shard count (1..4), so the one target
// covers the unsharded path and the bytes split/exec/scatter path —
// value copy-out included — against the same model. The rest of the
// input is this grammar, repeated until the data runs out:
//
//	op byte (mod 3: 0=Insert 1=Delete 2=Get)
//	klen byte (mod 11: keys collide often, and 9- and 10-byte keys
//	    can agree in the 8 bytes the list compares first)
//	key bytes
//	vlen byte (Insert only; value is vlen bytes of the next op byte)
func FuzzKVBytesApply(f *testing.F) {
	for shardByte := byte(0); shardByte < 4; shardByte++ {
		f.Add(append([]byte{shardByte}, 0, 1, 'a', 3, 2, 1, 'a', 1, 1, 'a', 0, 2, 'a', 'b', 5))
		f.Add(append([]byte{shardByte}, 0, 0, 200, 2, 0, 1, 0))
		f.Add(append([]byte{shardByte}, bytes.Repeat([]byte{0, 3, 'x', 'y', 'z', 7}, 40)...))
		f.Add(append([]byte{shardByte}, 0, 1, 'a', 0, 0, 1, 'b', 9, 2, 1, 'a', 2, 1, 'b', 2, 1, 'c'))
		f.Add(prefixTieSeed(shardByte))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		shards := 1
		if len(data) > 0 {
			shards, data = int(data[0]%4)+1, data[1:]
		}
		kv, err := hyaline.NewShardedKVBytes("blist", "hyaline", shards, hyaline.KVOptions{
			MaxThreads:      8,
			ArenaCap:        1 << 12,
			BlobClassBudget: 1 << 18,
		})
		if err != nil {
			t.Fatal(err)
		}
		var ops []hyaline.BytesOp
		model := map[string][]byte{}
		type pred struct {
			ok  bool
			val []byte
		}
		var expect []pred
		for i := 0; i < len(data) && len(ops) < 512; {
			op := data[i] % 3
			i++
			if i >= len(data) {
				break
			}
			klen := int(data[i] % 11)
			i++
			if i+klen > len(data) {
				break
			}
			key := data[i : i+klen]
			i += klen
			switch op {
			case 0:
				if i >= len(data) {
					break
				}
				vlen := int(data[i])
				i++
				fill := byte(0)
				if i < len(data) {
					fill = data[i]
				}
				val := bytes.Repeat([]byte{fill}, vlen)
				ops = append(ops, hyaline.BytesOp{Kind: hyaline.OpInsert, Key: key, Val: val})
				if _, dup := model[string(key)]; dup {
					expect = append(expect, pred{ok: false})
				} else {
					model[string(key)] = val
					expect = append(expect, pred{ok: true})
				}
			case 1:
				ops = append(ops, hyaline.BytesOp{Kind: hyaline.OpDelete, Key: key})
				_, hit := model[string(key)]
				delete(model, string(key))
				expect = append(expect, pred{ok: hit})
			default:
				ops = append(ops, hyaline.BytesOp{Kind: hyaline.OpGet, Key: key})
				v, hit := model[string(key)]
				expect = append(expect, pred{ok: hit, val: v})
			}
		}
		ops = ops[:len(expect)]

		res := kv.ApplyBytes(ops)
		for i, r := range res {
			if r.OK != expect[i].ok {
				t.Fatalf("op %d (%v key=%q): OK=%v, model says %v", i, ops[i].Kind, ops[i].Key, r.OK, expect[i].ok)
			}
			if ops[i].Kind == hyaline.OpGet && r.OK && !bytes.Equal(r.Val, expect[i].val) {
				t.Fatalf("op %d: Get %q returned %d bytes, model has %d", i, ops[i].Key, len(r.Val), len(expect[i].val))
			}
		}
		// Final state agrees and nothing leaked.
		if kv.Len() != len(model) {
			t.Fatalf("Len=%d, model has %d", kv.Len(), len(model))
		}
		for k, v := range model {
			got, ok := kv.Get([]byte(k))
			if !ok || !bytes.Equal(got, v) {
				t.Fatalf("final Get %q: ok=%v len=%d, want len=%d", k, ok, len(got), len(v))
			}
		}
		if n := kv.InFlight(); n != 0 {
			t.Fatalf("%d leases in flight after applies", n)
		}
	})
}

// prefixTieSeed spells, in FuzzKVBytesApply's grammar, the keys on which an
// 8-byte key prefix decides nothing or could decide wrongly (the same
// ones FuzzKeyPrefixOrder in internal/list is seeded with): insert all,
// read all, delete every other one, read all again.
func prefixTieSeed(shardByte byte) []byte {
	keys := [][]byte{
		{}, []byte("a"), []byte("a\x00"), []byte("abcdefg"), []byte("abcdefgh"),
		[]byte("abcdefgh1"), []byte("abcdefgh2"), bytes.Repeat([]byte{0xFF}, 8),
	}
	data := []byte{shardByte}
	each := func(op byte, step int, tail ...byte) {
		for i := 0; i < len(keys); i += step {
			data = append(append(append(data, op, byte(len(keys[i]))), keys[i]...), tail...)
		}
	}
	each(0, 1, 5) // insert, 5-byte values
	each(2, 1)
	each(1, 2)
	each(2, 1)
	return data
}
