package main

import "encoding/binary"

// rng is a splitmix64 stream. The benchmark's inputs are a function of
// the seed alone: one stream per client, one for the prefill.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// newRng derives the stream numbered lane from seed.
func newRng(seed uint64, lane int) rng {
	r := rng(seed)
	r = rng(r.next() + uint64(lane))
	return rng(r.next())
}

const prefillLane = 1 << 16 // above every client index

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opDel
	opScan
)

// op is one generated request.
type op struct {
	kind opKind
	key  uint64
	vlen int // value length of a bytes SET
}

// gen draws one client's requests: keys uniform over the key range.
// parity >= 0 restricts the keys to one residue class mod 2, which is
// how a traced run lets the store decorator name the connection a batch
// came from.
type gen struct {
	r      rng
	sp     *spec
	parity int
}

func newGen(sp *spec, seed uint64, client, parity int) gen {
	return gen{r: newRng(seed, client), sp: sp, parity: parity}
}

func (g *gen) next() op {
	key := g.r.next() % g.sp.keyRange
	if g.parity >= 0 {
		key = key&^1 | uint64(g.parity)
	}
	o := op{key: key}
	switch mix := int(g.r.next() % 100); {
	case mix < g.sp.getPct:
		o.kind = opGet
	case mix < g.sp.getPct+g.sp.setPct:
		o.kind = opSet
		if g.sp.fam == servedBytes {
			o.vlen = bimodalLen(&g.r)
		}
	case mix < g.sp.getPct+g.sp.setPct+g.sp.delPct:
		o.kind = opDel
	default:
		o.kind = opScan
	}
	return o
}

// bimodalLen is hyalineload's "bimodal" value size: 90% of draws
// uniform in 16..128 bytes, 10% uniform in 1..8 KiB.
func bimodalLen(r *rng) int {
	if r.next()%10 == 0 {
		return 1024 + int(r.next()%(7*1024+1))
	}
	return 16 + int(r.next()%113)
}

const maxValueLen = 8 << 10

// valueOf is the value every key carries, so any reader can check a hit.
func valueOf(key uint64) uint64 { return key*31 + 7 }

// fillOf is the byte a bytes value is a run of.
func fillOf(key uint64) byte { return byte(valueOf(key)) }

func putKey(b *[8]byte, key uint64) []byte {
	binary.BigEndian.PutUint64(b[:], key)
	return b[:]
}

// fillValue returns buf[:n] set to a run of fill; buf holds maxValueLen.
func fillValue(buf []byte, fill byte, n int) []byte {
	v := buf[:n]
	for i := range v {
		v[i] = fill
	}
	return v
}

func isRunOf(v []byte, fill byte) bool {
	for _, b := range v {
		if b != fill {
			return false
		}
	}
	return true
}

// prefillKeys calls insert with keys from the seed's prefill stream
// until n of them were new.
func prefillKeys(sp *spec, seed uint64, insert func(key uint64) bool) {
	r := newRng(seed, prefillLane)
	for n := 0; n < sp.prefill; {
		if insert(r.next() % sp.keyRange) {
			n++
		}
	}
}
