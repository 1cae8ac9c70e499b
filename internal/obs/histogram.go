package obs

import (
	"bufio"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
)

// DefSecondsBuckets is the default bucket set for latency histograms,
// spanning 1 ms to 60 s — the range from a single tiny task wave to a full
// paper-sized epoch.
var DefSecondsBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// histShard is one worker's private bucket array. Shards are independently
// allocated slices, so concurrent observers on different shards never touch
// the same cache lines; the pad keeps neighbouring sum/count words apart.
type histShard struct {
	counts  []atomic.Int64 // len(edges)+1; last bucket is (lastEdge, +Inf)
	sumBits atomic.Uint64
	count   atomic.Int64
	_       [40]byte
}

// Histogram is a fixed-bucket histogram sharded across workers so that
// hot-path Observe calls never contend on a shared lock or cache line.
// Exposition merges the shards into one cumulative Prometheus histogram.
type Histogram struct {
	edges  []float64 // ascending upper bounds (le values), +Inf implicit
	shards []histShard
	next   atomic.Uint32 // round-robin shard picker for hint-less observers
}

func newHistogram(edges []float64, shards int) *Histogram {
	if len(edges) == 0 {
		panic("obs: histogram needs at least one bucket edge")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic("obs: histogram edges must be strictly ascending")
		}
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
		if shards > 64 {
			shards = 64
		}
	}
	h := &Histogram{
		edges:  append([]float64(nil), edges...),
		shards: make([]histShard, shards),
	}
	for i := range h.shards {
		h.shards[i].counts = make([]atomic.Int64, len(edges)+1)
	}
	return h
}

// MustHistogram registers and returns a histogram with the given bucket
// upper bounds. shards <= 0 selects one shard per GOMAXPROCS (capped at 64).
func (r *Registry) MustHistogram(name, help string, edges []float64, shards int, labels ...string) *Histogram {
	h := newHistogram(edges, shards)
	r.register(name, help, typeHistogram, labels, h)
	return h
}

// Observe records v on a round-robin shard. Callers that know their worker
// index should prefer ObserveShard to avoid the shared round-robin counter.
func (h *Histogram) Observe(v float64) {
	h.ObserveShard(int(h.next.Add(1)), v)
}

// ObserveShard records v on the shard owned by worker w (mod shard count).
func (h *Histogram) ObserveShard(w int, v float64) {
	sh := &h.shards[uint(w)%uint(len(h.shards))]
	// SearchFloat64s returns the first edge >= v, which is exactly the
	// Prometheus le-bucket; values above every edge land in the +Inf bucket.
	i := sort.SearchFloat64s(h.edges, v)
	sh.counts[i].Add(1)
	sh.count.Add(1)
	for {
		old := sh.sumBits.Load()
		if sh.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
}

// snapshot merges all shards into cumulative bucket counts, total count, and
// sum.
func (h *Histogram) snapshot() (cum []int64, count int64, sum float64) {
	cum = make([]int64, len(h.edges)+1)
	for s := range h.shards {
		sh := &h.shards[s]
		for i := range sh.counts {
			cum[i] += sh.counts[i].Load()
		}
		count += sh.count.Load()
		sum += math.Float64frombits(sh.sumBits.Load())
	}
	for i := 1; i < len(cum); i++ {
		cum[i] += cum[i-1]
	}
	return cum, count, sum
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
