package server

import (
	"hyaline"
	"hyaline/internal/protocol"
)

// bytesBatch is the bytes family: GETB/SETB/DELB over a BytesStore.
//
// Pushed ops alias the reader's network buffer. That is safe in FIFO
// modes — the reader is parked while its run is applied and encoded,
// and every run is flushed before the loop returns to ReadFrame — and
// is why an async OOO run takes an owned copy: the reader keeps
// consuming its buffer while the run waits.
type bytesBatch struct {
	kv    BytesStore
	ops   []hyaline.BytesOp
	res   []hyaline.BytesResult
	vbuf  []byte // GETB hit values of the last apply; encode copies them out
	kvbuf []byte // backs the keys and values of an owned copy
}

func (b *bytesBatch) len() int        { return len(b.ops) }
func (b *bytesBatch) reset()          { b.ops = b.ops[:0] }
func (b *bytesBatch) merge(src batch) { b.ops = append(b.ops, src.(*bytesBatch).ops...) }

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

// own deep-copies src's keys and values into kvbuf. Capacity is ensured
// up front, so the appends never reallocate under the subslices being
// taken.
func (b *bytesBatch) own(src batch) {
	ops := src.(*bytesBatch).ops
	need := 0
	for _, op := range ops {
		need += len(op.Key) + len(op.Val)
	}
	if cap(b.kvbuf) < need {
		b.kvbuf = make([]byte, 0, need)
	}
	b.kvbuf, b.ops = b.kvbuf[:0], b.ops[:0]
	for _, op := range ops {
		ks := len(b.kvbuf)
		b.kvbuf = append(b.kvbuf, op.Key...)
		op.Key = b.kvbuf[ks:len(b.kvbuf):len(b.kvbuf)]
		if op.Val != nil {
			vs := len(b.kvbuf)
			b.kvbuf = append(b.kvbuf, op.Val...)
			op.Val = b.kvbuf[vs:len(b.kvbuf):len(b.kvbuf)]
		}
		b.ops = append(b.ops, op)
	}
}

// encode copies each hit value into the reply buffer, so nothing on the
// wire path aliases vbuf once the batch moves on — the guarantee the
// OOO conformance test pins down.
func (b *bytesBatch) encode(buf []byte, off, n int, seqs []uint32) []byte {
	for i := 0; i < n; i++ {
		r := b.res[off+i]
		switch {
		case b.ops[off+i].Kind != hyaline.OpGet || !r.OK:
			buf = appendStatus(buf, r.OK, seqs, i)
		case len(seqs) == 0:
			buf = protocol.AppendValueB(buf, r.Val)
		default:
			buf = protocol.AppendValueBSeq(buf, seqs[i], r.Val)
		}
	}
	return buf
}
