package obs

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// DefSecondsBuckets is the default bucket set for latency histograms,
// spanning 1 ms to 60 s — the range from a single tiny task wave to a full
// paper-sized epoch.
var DefSecondsBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket histogram over atomic counters, so hot-path
// Observe calls never take a lock. Exposition renders it as a cumulative
// Prometheus histogram.
type Histogram struct {
	edges   []float64      // ascending upper bounds (le values), +Inf implicit
	counts  []atomic.Int64 // len(edges)+1; last bucket is (lastEdge, +Inf)
	sumBits atomic.Uint64
	count   atomic.Int64
}

func newHistogram(edges []float64) *Histogram {
	if len(edges) == 0 {
		panic("obs: histogram needs at least one bucket edge")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic("obs: histogram edges must be strictly ascending")
		}
	}
	return &Histogram{
		edges:  append([]float64(nil), edges...),
		counts: make([]atomic.Int64, len(edges)+1),
	}
}

// MustHistogram registers and returns a histogram with the given bucket
// upper bounds.
func (r *Registry) MustHistogram(name, help string, edges []float64, labels ...string) *Histogram {
	h := newHistogram(edges)
	r.register(name, help, typeHistogram, labels, h)
	return h
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	// SearchFloat64s returns the first edge >= v, which is exactly the
	// Prometheus le-bucket; values above every edge land in the +Inf bucket.
	i := sort.SearchFloat64s(h.edges, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
}

// snapshot returns cumulative bucket counts, total count, and sum.
func (h *Histogram) snapshot() (cum []int64, count int64, sum float64) {
	cum = make([]int64, len(h.edges)+1)
	for i := range h.counts {
		cum[i] = h.counts[i].Load()
	}
	for i := 1; i < len(cum); i++ {
		cum[i] += cum[i-1]
	}
	return cum, h.count.Load(), math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-th quantile (q in [0, 1]) of the observed values
// by linear interpolation inside the bucket containing the target rank — the
// same estimate a Prometheus histogram_quantile() query computes server-side.
// Values in the +Inf overflow bucket are reported as the largest finite edge.
// Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	cum, count, _ := h.snapshot()
	if count == 0 {
		return 0
	}
	q = math.Max(0, math.Min(1, q))
	rank := q * float64(count)
	for i, c := range cum {
		if float64(c) < rank {
			continue
		}
		if i >= len(h.edges) {
			break // overflow bucket
		}
		lo := 0.0
		var prev int64
		if i > 0 {
			lo = h.edges[i-1]
			prev = cum[i-1]
		}
		in := c - prev
		if in == 0 {
			return h.edges[i]
		}
		frac := (rank - float64(prev)) / float64(in)
		return lo + frac*(h.edges[i]-lo)
	}
	return h.edges[len(h.edges)-1]
}

func (h *Histogram) writeSamples(w *bufio.Writer, fam string, labels []labelPair) {
	cum, count, sum := h.snapshot()
	for i, edge := range h.edges {
		le := append(append([]labelPair(nil), labels...), labelPair{"le", formatFloat(edge)})
		fmt.Fprintf(w, "%s_bucket%s %d\n", fam, renderLabels(le), cum[i])
	}
	inf := append(append([]labelPair(nil), labels...), labelPair{"le", "+Inf"})
	fmt.Fprintf(w, "%s_bucket%s %d\n", fam, renderLabels(inf), cum[len(cum)-1])
	lbl := renderLabels(labels)
	fmt.Fprintf(w, "%s_sum%s %s\n", fam, lbl, formatFloat(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", fam, lbl, count)
}
