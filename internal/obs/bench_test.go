package obs

import (
	"io"
	"testing"
)

// The overhead budget: counter/gauge updates are one atomic op, histogram
// observation a handful. These benchmarks fail loudly in CI's
// benchmark smoke step if instrumentation cost regresses.

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.MustCounter("bench_ops_total", "ops")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkGaugeSet(b *testing.B) {
	r := NewRegistry()
	g := r.MustGauge("bench_depth", "depth")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			g.Set(1.0)
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.MustHistogram("bench_seconds", "lat", DefSecondsBuckets)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.01)
		}
	})
}

func BenchmarkScrape(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 8; i++ {
		r.MustGaugeFunc("bench_gauge", "g", func() float64 { return 1 }, "i", string(rune('a'+i)))
	}
	h := r.MustHistogram("bench_scrape_seconds", "lat", DefSecondsBuckets)
	h.Observe(0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
