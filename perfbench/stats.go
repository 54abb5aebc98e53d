package main

import (
	"math/bits"
	"slices"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the same rule as numpy's default). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(i)
	return s[i]*(1-f) + s[i+1]*f
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0, so an idle layer reports 0 instead of
// NaN (which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hist is a log-bucket histogram of non-negative integers (nanoseconds):
// values below 128 land in unit buckets, larger ones in one of 64
// sub-buckets per power of two, so any quantile is within 1/64 of the
// true value.
// The per-layer timings use it because a traced run records millions of
// spans and keeping every duration would cost more memory than the pool.
type hist struct {
	counts []uint64
	n      uint64
}

func histBucket(v int64) int {
	if v < 128 {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - 7
	return 128 + (e-1)*64 + int(uint64(v)>>e) - 64
}

// histSpan returns the lowest value bucket b holds and its width.
func histSpan(b int) (lo, width float64) {
	if b < 128 {
		return float64(b), 1
	}
	e := (b-128)/64 + 1
	m := uint64((b-128)%64 + 64)
	return float64(m << e), float64(uint64(1) << e)
}

func (h *hist) add(v int64) {
	b := histBucket(v)
	if b >= len(h.counts) {
		h.counts = append(h.counts, make([]uint64, b+1-len(h.counts))...)
	}
	h.counts[b]++
	h.n++
}

// quantile returns the q-quantile, interpolated within its bucket, or 0
// for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n-1)) + 1
	var seen uint64
	for b, c := range h.counts {
		if seen+c >= rank {
			lo, width := histSpan(b)
			return lo + width*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += c
	}
	lo, _ := histSpan(len(h.counts) - 1)
	return lo
}

func (h *hist) merge(o *hist) {
	if len(o.counts) > len(h.counts) {
		h.counts = append(h.counts, make([]uint64, len(o.counts)-len(h.counts))...)
	}
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.n += o.n
}
