package sim

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestHistBuckets(t *testing.T) {
	h := NewHist(0, 1, 2)
	h.Add(0.5, 1) // bucket [0,1)
	h.Add(1.0, 2) // bucket [1,2)
	h.Add(1.9, 1) // bucket [1,2)
	h.Add(5, 4)   // bucket [2,inf)
	h.Add(-3, 2)  // clamped into [0,1)
	if h.Total != 10 {
		t.Fatalf("total %g", h.Total)
	}
	if got := h.Shares(); !slices.Equal(got, []float64{0.3, 0.3, 0.4}) {
		t.Fatalf("shares %v", got)
	}
}

func TestHistIgnoresBadWeightsAndNaN(t *testing.T) {
	h := NewHist(0, 1)
	h.Add(0.5, 0)
	h.Add(0.5, -1)
	h.Add(math.NaN(), 5)
	if h.Total != 0 {
		t.Fatalf("total %g", h.Total)
	}
}

func TestHistSharesSumToOne(t *testing.T) {
	f := func(vals []float64) bool {
		h := NewHist(0, 1, 2, 3)
		added := false
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				h.Add(v, 1)
				added = true
			}
		}
		if !added {
			return true
		}
		sum := 0.0
		for _, s := range h.Shares() {
			sum += s
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHist() },
		func() { NewHist(1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}
