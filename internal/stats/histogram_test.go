package stats

import (
	"fmt"
	"strings"
	"testing"
)

func TestHistogramBasic(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram not zeroed: %v", h.String())
	}
	for _, v := range []int64{1, 2, 3, 4, 100, 0} {
		h.Add(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Min() != 0 || h.Max() != 100 {
		t.Fatalf("min/max = %d/%d, want 0/100", h.Min(), h.Max())
	}
	wantMean := (1 + 2 + 3 + 4 + 100.0) / 6
	if m := h.Mean(); m != wantMean {
		t.Fatalf("mean = %g, want %g", m, wantMean)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Add(1) // bucket 1: <=1
	h.Add(2) // bucket 2: <=3
	h.Add(3)
	h.Add(7)   // bucket 3: <=7
	h.Add(128) // bucket 8: <=255
	s := h.String()
	for _, want := range []string{"<=1:1", "<=3:2", "<=7:1", "<=255:1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 100; i++ {
		h.Add(i)
	}
	// The median of 1..100 falls in bucket <=63; p100 clamps to max.
	if q := h.Quantile(0.5); q != 63 {
		t.Fatalf("p50 = %d, want 63", q)
	}
	if q := h.Quantile(1); q != 100 {
		t.Fatalf("p100 = %d, want 100 (clamped to max)", q)
	}
	if q := h.Quantile(0); q != 1 {
		t.Fatalf("p0 = %d, want 1", q)
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	for _, v := range []int64{-3, 0, 7, 1 << 40} {
		h.Add(v)
	}
	if h.Count() == 0 {
		t.Fatal("setup: histogram empty")
	}
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 ||
		h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("Reset left state behind: %s", h.String())
	}
	if h.String() != "empty" {
		t.Fatalf("String after Reset = %q, want \"empty\"", h.String())
	}
	// The reset histogram must behave exactly like a fresh one.
	h.Add(42)
	if h.Count() != 1 || h.Min() != 42 || h.Max() != 42 || h.Sum() != 42 {
		t.Fatalf("reused histogram wrong: %s", h.String())
	}
}

// TestHistogramBucketBoundaries pins the power-of-two bucket edges: 2^k-1
// and 2^k must land in adjacent buckets for every k, and non-positive
// values share bucket 0.
func TestHistogramBucketBoundaries(t *testing.T) {
	for k := 1; k < 62; k++ {
		var h Histogram
		lo := int64(1)<<k - 1 // top of bucket k
		hi := int64(1) << k   // bottom of bucket k+1
		h.Add(lo)
		h.Add(hi)
		s := h.String()
		for _, want := range []string{
			"<=" + itoa(lo) + ":1",
			"<=" + itoa(int64(1)<<(k+1)-1) + ":1",
		} {
			if !strings.Contains(s, want) {
				t.Fatalf("k=%d: String() = %q, missing %q", k, s, want)
			}
		}
	}
	var h Histogram
	h.Add(0)
	h.Add(-5)
	if !strings.Contains(h.String(), "<=0:2") {
		t.Fatalf("non-positive values not in bucket 0: %s", h.String())
	}
}

func itoa(v int64) string { return fmt.Sprintf("%d", v) }

// TestHistogramQuantileEdges pins the documented edge semantics: quantiles
// clamp q into [0,1], empty histograms return 0 everywhere, and a
// single-observation histogram reports that observation at every quantile.
func TestHistogramQuantileEdges(t *testing.T) {
	var empty Histogram
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%g) = %d, want 0", q, got)
		}
	}
	var one Histogram
	one.Add(100)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := one.Quantile(q); got != 100 {
			t.Fatalf("single-value Quantile(%g) = %d, want 100", q, got)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Add(5)
	a.Add(9)
	b.Add(1)
	b.Add(1000)
	a.Merge(&b)
	if a.Count() != 4 || a.Min() != 1 || a.Max() != 1000 {
		t.Fatalf("merge wrong: %s", a.String())
	}
	var empty Histogram
	a.Merge(&empty)
	if a.Count() != 4 {
		t.Fatalf("merging empty changed count: %d", a.Count())
	}
	empty.Merge(&a)
	if empty.Count() != 4 || empty.Min() != 1 || empty.Max() != 1000 {
		t.Fatalf("merge into empty wrong: %s", empty.String())
	}
}

func TestHistogramPackRoundTrip(t *testing.T) {
	for _, vs := range [][]int64{
		nil,
		{0},
		{-3, 0},
		{5, 9, 9, 12},
		{1, 1 << 40, 7},
		{1<<63 - 1},
	} {
		var h Histogram
		for _, v := range vs {
			h.Add(v)
		}
		p := h.Pack()
		if got := p.Unpack(); got != h {
			t.Errorf("%v: unpacked %s, want %s", vs, got.String(), h.String())
		}
		used := 0
		if len(vs) > 0 {
			first, last := -1, 0
			for i, c := range h.counts {
				if c != 0 {
					if first < 0 {
						first = i
					}
					last = i
				}
			}
			used = last - first + 1
		}
		if p.Buckets() != used {
			t.Errorf("%v: packed %d buckets, want the %d from first to last used", vs, p.Buckets(), used)
		}
	}
}
