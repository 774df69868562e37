package main

import (
	"math/bits"
	"sort"
)

// hist is a fixed-size log-linear histogram of nanosecond values: exact
// below 128 ns, then 128 linear sub-buckets per power of two, so a
// bucket is at most 1/128 of its value wide and an interpolated
// quantile is well within 1% of the sorted sample's. It is allocated
// before timing starts and never grows, so it does not show in RSS the
// way a sample array would. Not safe for concurrent use: one per client
// and slice, merged afterwards.
type hist struct {
	count   int64
	buckets [histBuckets]uint32
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histMaxExp  = 40 // values from 2^40 ns (18 minutes) up share the last row
	histBuckets = (histMaxExp - histSubBits + 2) * histSub
)

func histBucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - 1
	if exp > histMaxExp {
		exp, v = histMaxExp, 1<<(histMaxExp+1)-1
	}
	sub := v >> uint(exp-histSubBits) & (histSub - 1)
	return (exp-histSubBits+1)*histSub + int(sub)
}

// histBucketRange returns the lowest value of bucket i and its width.
func histBucketRange(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	exp := i/histSub - 1 + histSubBits
	sub := uint64(i % histSub)
	w := uint64(1) << uint(exp-histSubBits)
	return float64(uint64(1)<<uint(exp) + sub*w), float64(w)
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.buckets[histBucketOf(uint64(ns))]++
	h.count++
}

func (h *hist) merge(o *hist) {
	h.count += o.count
	for i, n := range o.buckets {
		h.buckets[i] += n
	}
}

// quantile returns the q-quantile in nanoseconds, interpolated inside
// the bucket that holds it (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	var cum float64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		if cum+float64(n) >= rank {
			lo, width := histBucketRange(i)
			return lo + width*(rank-cum)/float64(n)
		}
		cum += float64(n)
	}
	lo, width := histBucketRange(histBuckets - 1)
	return lo + width
}

// above returns how many samples lie beyond the q-quantile.
func (h *hist) above(q float64) int64 {
	return h.count - int64(q*float64(h.count))
}

// median returns the middle of vs (the mean of the two middles when
// there is an even number), 0 when empty. vs is sorted in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	mid := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[mid]
	}
	return (vs[mid-1] + vs[mid]) / 2
}
