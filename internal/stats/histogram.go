package stats

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// histBuckets is the bucket count of Histogram: bucket i collects values v
// with bits.Len64(v) == i, i.e. power-of-two ranges, plus bucket 0 for
// non-positive values. 64 buckets cover the whole int64 range.
const histBuckets = 64

// Histogram counts int64 observations in power-of-two buckets. Bucket i
// (i >= 1) holds values in [2^(i-1), 2^i - 1]; bucket 0 holds values <= 0.
// The zero value is an empty histogram ready for use; it is a plain value
// type, so merging track-local histograms needs no locking.
//
// Empty-histogram semantics are defined, not accidental: Count, Sum, Min,
// Max, Mean and Quantile all return 0 when no observation has been recorded
// (including immediately after Reset). Min()/Max() == 0 is therefore
// ambiguous between "empty" and "observed only zeros"; check Count first
// when the distinction matters.
type Histogram struct {
	counts   [histBuckets]int64
	n        int64
	sum      int64
	min, max int64
}

// Add records one observation.
func (h *Histogram) Add(v int64) {
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
	}
	h.counts[i]++
	h.sum += v
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
}

// Merge adds o's observations into h.
func (h *Histogram) Merge(o *Histogram) {
	if o.n == 0 {
		return
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.n == 0 || o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
}

// PackedHistogram is a Histogram trimmed to the span of its used buckets,
// for holding many histograms at rest: a reuse-distance histogram fills a
// handful of its 64 buckets. Unpack restores the histogram exactly.
type PackedHistogram struct {
	counts   []int64 // buckets lo .. lo+len(counts)-1
	lo       int
	n, sum   int64
	min, max int64
}

// Pack returns h trimmed to the span from its first to its last non-empty
// bucket.
func (h *Histogram) Pack() PackedHistogram {
	lo, hi := 0, len(h.counts)
	for lo < hi && h.counts[lo] == 0 {
		lo++
	}
	for hi > lo && h.counts[hi-1] == 0 {
		hi--
	}
	return PackedHistogram{
		counts: slices.Clone(h.counts[lo:hi]), lo: lo,
		n: h.n, sum: h.sum, min: h.min, max: h.max,
	}
}

// Unpack returns the histogram p was packed from.
func (p *PackedHistogram) Unpack() Histogram {
	h := Histogram{n: p.n, sum: p.sum, min: p.min, max: p.max}
	copy(h.counts[p.lo:], p.counts)
	return h
}

// Buckets returns the number of buckets p holds.
func (p *PackedHistogram) Buckets() int { return len(p.counts) }

// Reset returns the histogram to the empty state, as if freshly declared:
// Count, Sum, Min, Max, Mean and Quantile all report 0 again afterwards.
func (h *Histogram) Reset() { *h = Histogram{} }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Sum returns the exact sum of the observations (0 when empty).
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the arithmetic mean of the observations (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() int64 { return h.min }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// bucketUpper returns the inclusive upper bound of bucket i.
func bucketUpper(i int) int64 {
	if i == 0 {
		return 0
	}
	if i >= 63 {
		return 1<<63 - 1
	}
	return 1<<i - 1
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1): the
// inclusive upper edge of the bucket in which the quantile falls, clamped to
// the observed maximum. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q*float64(h.n) + 0.5)
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i]
		if cum >= target {
			return min(bucketUpper(i), h.max)
		}
	}
	return h.max
}

// String renders the histogram compactly: summary stats followed by the
// non-empty buckets as "<=upper:count" pairs.
func (h *Histogram) String() string {
	if h.n == 0 {
		return "empty"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.1f min=%d max=%d |", h.n, h.Mean(), h.min, h.max)
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		fmt.Fprintf(&b, " <=%d:%d", bucketUpper(i), c)
	}
	return b.String()
}
