// batch.go is the one seam where the server knows which key family it
// serves. Everything else — connections, windows, the poller — moves
// batch values around without looking inside.
package server

import (
	"errors"

	"hyaline"
	"hyaline/internal/protocol"
)

// batch is one key family's run of pending data ops plus, once applied,
// their results. A connection owns one: its current run.
type batch interface {
	len() int
	reset()
	// push decodes one validated data frame into a pending op. A frame
	// of the other family is a protocol error.
	push(op protocol.Op, payload []byte) error
	// apply runs the pending ops against the store in one ApplyInto —
	// one lease and one bracket per shard touched.
	apply()
	// encode appends the replies of the applied ops to buf in request
	// order.
	encode(buf []byte) []byte
}

// appendStatus encodes the payload-free replies both families share:
// OK for a mutation that took effect, NIL for a miss or a no-op.
func appendStatus(buf []byte, ok bool) []byte {
	if ok {
		return protocol.AppendOK(buf)
	}
	return protocol.AppendNil(buf)
}

func errWrongFamily(op protocol.Op, serves string) error {
	return errors.New("server: " + op.String() + " on a server backed by a " + serves + " KV")
}

// u64Batch is the uint64 family: GET/SET/DEL over a Store.
type u64Batch struct {
	kv  Store
	ops []hyaline.Op
	res []hyaline.Result
}

func (b *u64Batch) len() int { return len(b.ops) }
func (b *u64Batch) reset()   { b.ops = b.ops[:0] }
func (b *u64Batch) apply()   { b.res = b.kv.ApplyInto(b.res[:0], b.ops) }

func (b *u64Batch) push(op protocol.Op, p []byte) error {
	var o hyaline.Op
	switch op {
	case protocol.OpGet:
		o.Kind = hyaline.OpGet
		o.Key, _ = protocol.U64(p)
	case protocol.OpSet:
		o.Kind = hyaline.OpInsert
		o.Key, o.Val, _ = protocol.KeyVal(p)
	case protocol.OpDel:
		o.Kind = hyaline.OpDelete
		o.Key, _ = protocol.U64(p)
	default:
		return errWrongFamily(op, "uint64")
	}
	b.ops = append(b.ops, o)
	return nil
}

func (b *u64Batch) encode(buf []byte) []byte {
	for i, r := range b.res {
		if b.ops[i].Kind == hyaline.OpGet && r.OK {
			buf = protocol.AppendValue(buf, r.Val)
		} else {
			buf = appendStatus(buf, r.OK)
		}
	}
	return buf
}
