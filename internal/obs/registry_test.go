package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.MustCounter("test_ops_total", "ops")
	g := r.MustGauge("test_depth", "depth")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter %d", c.Value())
	}
	g.Set(1.5)
	if g.Value() != 1.5 {
		t.Fatalf("gauge %g", g.Value())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE test_ops_total counter",
		"test_ops_total 5",
		"# TYPE test_depth gauge",
		"test_depth 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestLabelsAndFuncs(t *testing.T) {
	r := NewRegistry()
	r.MustGaugeFunc("test_queue_depth", "d", func() float64 { return 3 }, "queue", "global")
	r.MustGaugeFunc("test_queue_depth", "d", func() float64 { return 7 }, "queue", "local")
	r.MustCounterFunc("test_seen_total", "s", func() float64 { return 11 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`test_queue_depth{queue="global"} 3`,
		`test_queue_depth{queue="local"} 7`,
		"test_seen_total 11",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE test_queue_depth") != 1 {
		t.Fatalf("TYPE line must appear once per family:\n%s", out)
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.MustCounter("dup_total", "x")
	mustPanic("duplicate series", func() { r.MustCounter("dup_total", "x") })
	mustPanic("type conflict", func() { r.MustGauge("dup_total", "x", "a", "b") })
	mustPanic("bad name", func() { r.MustCounter("bad-name", "x") })
	mustPanic("bad label", func() { r.MustCounter("ok_total", "x", "bad-label", "v") })
	mustPanic("odd labels", func() { r.MustCounter("ok2_total", "x", "only-key") })
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.MustHistogram("test_latency_seconds", "lat", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if _, count, sum := h.snapshot(); count != 5 || math.Abs(sum-55.65) > 1e-9 {
		t.Fatalf("count %d, sum %g", count, sum)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Cumulative le buckets: 0.05 and 0.1 land in le=0.1 (le is inclusive),
	// 0.5 in le=1, 5 in le=10, 50 only in +Inf.
	for _, want := range []string{
		`test_latency_seconds_bucket{le="0.1"} 2`,
		`test_latency_seconds_bucket{le="1"} 3`,
		`test_latency_seconds_bucket{le="10"} 4`,
		`test_latency_seconds_bucket{le="+Inf"} 5`,
		"test_latency_seconds_sum ", // exact digits depend on FP accumulation order
		`test_latency_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestConcurrentRecording hammers every metric type from many goroutines
// while a scraper renders concurrently; run with -race it proves hot-path
// recording is lock-free-safe against exposition.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.MustCounter("hammer_ops_total", "ops")
	g := r.MustGauge("hammer_depth", "depth")
	h := r.MustHistogram("hammer_seconds", "lat", []float64{0.001, 0.01, 0.1, 1})
	const goroutines, iters = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i%100) / 100)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != goroutines*iters {
		t.Fatalf("counter %d, want %d", c.Value(), goroutines*iters)
	}
	if _, count, _ := h.snapshot(); count != goroutines*iters {
		t.Fatalf("histogram count %d, want %d", count, goroutines*iters)
	}
}
