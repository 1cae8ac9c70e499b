package obs

import (
	"math"
	"testing"
)

func TestHistogramQuantileEmpty(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("Quantile on empty histogram = %g, want 0", got)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	// 100 observations spread uniformly over (0, 1]; every one lands in the
	// first bucket (le=1), so histogram_quantile-style interpolation inside
	// [0, 1] should track the true quantiles closely.
	h := newHistogram([]float64{1, 2, 4})
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 0.50},
		{0.90, 0.90},
		{1.00, 1.00},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
}

func TestHistogramQuantileAcrossBuckets(t *testing.T) {
	// 50 observations in (0,1], 50 in (1,2]: the median sits at the bucket
	// boundary and p75 interpolates to the middle of the second bucket.
	h := newHistogram([]float64{1, 2, 4})
	for i := 1; i <= 50; i++ {
		h.Observe(float64(i) / 50)   // (0, 1]
		h.Observe(1 + float64(i)/50) // (1, 2]
	}
	if got := h.Quantile(0.5); math.Abs(got-1) > 1e-9 {
		t.Errorf("Quantile(0.5) = %g, want 1 (bucket boundary)", got)
	}
	if got := h.Quantile(0.75); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("Quantile(0.75) = %g, want 1.5", got)
	}
}

func TestHistogramQuantileOverflowBucket(t *testing.T) {
	// Observations beyond the last edge land in the +Inf bucket; quantiles
	// that fall there are clamped to the largest finite edge rather than
	// fabricating an unbounded estimate.
	h := newHistogram([]float64{1, 2, 4})
	h.Observe(0.5)
	h.Observe(100)
	h.Observe(200)
	if got := h.Quantile(0.99); got != 4 {
		t.Errorf("Quantile(0.99) = %g, want largest finite edge 4", got)
	}
}

func TestHistogramQuantileClampsQ(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	h.Observe(0.5)
	if got := h.Quantile(-1); got < 0 || got > 1 {
		t.Errorf("Quantile(-1) = %g, want a value inside the first bucket", got)
	}
	if got := h.Quantile(2); got != h.Quantile(1) {
		t.Errorf("Quantile(2) = %g, want Quantile(1) = %g", got, h.Quantile(1))
	}
}
