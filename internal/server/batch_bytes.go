package server

import (
	"hyaline"
	"hyaline/internal/protocol"
)

// bytesBatch is the bytes family: GETB/SETB/DELB over a BytesStore.
//
// Pushed ops alias the reader's network buffer. That is safe because
// the reader applies and encodes its run itself, and every run is
// flushed before the loop returns to ReadFrame.
type bytesBatch struct {
	kv   BytesStore
	ops  []hyaline.BytesOp
	res  []hyaline.BytesResult
	vbuf []byte // GETB hit values of the last apply; encode copies them out
}

func (b *bytesBatch) len() int { return len(b.ops) }
func (b *bytesBatch) reset()   { b.ops = b.ops[:0] }

func (b *bytesBatch) apply() {
	b.res, b.vbuf = b.kv.ApplyBytesInto(b.res[:0], b.vbuf[:0], b.ops)
}

func (b *bytesBatch) push(op protocol.Op, p []byte) error {
	var o hyaline.BytesOp
	switch op {
	case protocol.OpGetB:
		o.Kind = hyaline.OpGet
		o.Key, _ = protocol.KeyB(p)
	case protocol.OpSetB:
		o.Kind = hyaline.OpInsert
		o.Key, o.Val, _ = protocol.KeyValB(p)
	case protocol.OpDelB:
		o.Kind = hyaline.OpDelete
		o.Key, _ = protocol.KeyB(p)
	default:
		return errWrongFamily(op, "bytes")
	}
	b.ops = append(b.ops, o)
	return nil
}

// encode copies each hit value into the reply buffer, so nothing on the
// wire path aliases vbuf once the batch moves on.
func (b *bytesBatch) encode(buf []byte) []byte {
	for i, r := range b.res {
		if b.ops[i].Kind == hyaline.OpGet && r.OK {
			buf = protocol.AppendValueB(buf, r.Val)
		} else {
			buf = appendStatus(buf, r.OK)
		}
	}
	return buf
}
