package serve

import (
	"strconv"
	"sync"
	"time"

	"bpar/internal/obs"
)

// fillBuckets are the batch-fill histogram edges: eighths of a full batch.
var fillBuckets = []float64{0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1}

// metrics is the serve-level instrumentation, registered under bpar_serve_*.
// Per-engine series (step latency, template hit/miss, workspace cache) are
// registered separately by each pool engine under bpar_engine_*{engine="i"}.
type metrics struct {
	reqOK          *obs.Counter
	reqBad         *obs.Counter
	reqRejected    *obs.Counter
	reqUnavailable *obs.Counter
	reqErr         *obs.Counter
	reqCanceled    *obs.Counter
	rejected       *obs.Counter
	sequences      *obs.Counter
	batches        *obs.Counter
	warmed         *obs.Counter
	bucketHits     *obs.Counter
	bucketMisses   *obs.Counter
	latency        *obs.Histogram
	batchFill      *obs.Histogram

	// Per-stage request timing: where a sequence's latency actually goes.
	// queue_wait is admission → batcher pickup, batch_wait is pickup →
	// dispatch (bounded by BatchWindow), compute is one micro-batch's
	// engine time; padding overhead is the padded-cell fraction per batch.
	stageQueueWait  *obs.Histogram
	stageBatchWait  *obs.Histogram
	stageCompute    *obs.Histogram
	paddingOverhead *obs.Histogram

	// Per-bucket occupancy and padding cost, labeled by bucketed sequence
	// length. Series are registered lazily on a bucket's first dispatch —
	// the bucket working set is request-driven (exact lengths) unless
	// Config.Buckets pins it.
	reg      *obs.Registry
	bmu      sync.Mutex
	byBucket map[int]*bucketMetrics
}

// bucketMetrics is one length bucket's occupancy view: how many sequences
// and micro-batches it carried, how full its batches ran, and what fraction
// of its dispatched cells were padding.
type bucketMetrics struct {
	rows        *obs.Counter
	batches     *obs.Counter
	fill        *obs.Histogram
	padOverhead *obs.Histogram
}

// forBucket returns bucket T's metric set, registering the series on first
// use. Safe for concurrent workers.
func (m *metrics) forBucket(T int) *bucketMetrics {
	m.bmu.Lock()
	defer m.bmu.Unlock()
	if bm, ok := m.byBucket[T]; ok {
		return bm
	}
	label := strconv.Itoa(T)
	bm := &bucketMetrics{
		rows: m.reg.MustCounter("bpar_serve_bucket_rows_total",
			"Sequences dispatched per length bucket.", "bucket", label),
		batches: m.reg.MustCounter("bpar_serve_bucket_batches_total",
			"Micro-batches dispatched per length bucket.", "bucket", label),
		fill: m.reg.MustHistogram("bpar_serve_bucket_fill",
			"Real rows over batch capacity per micro-batch, by length bucket.",
			fillBuckets, "bucket", label),
		padOverhead: m.reg.MustHistogram("bpar_serve_bucket_padding_overhead",
			"Padded-cell fraction per micro-batch, by length bucket.",
			fillBuckets, "bucket", label),
	}
	m.byBucket[T] = bm
	return bm
}

func newMetrics(reg *obs.Registry, s *Server) *metrics {
	m := &metrics{
		reg:      reg,
		byBucket: make(map[int]*bucketMetrics),
		reqOK: reg.MustCounter("bpar_serve_requests_total",
			"Inference requests by outcome.", "code", "200"),
		reqBad: reg.MustCounter("bpar_serve_requests_total",
			"Inference requests by outcome.", "code", "400"),
		reqRejected: reg.MustCounter("bpar_serve_requests_total",
			"Inference requests by outcome.", "code", "429"),
		reqUnavailable: reg.MustCounter("bpar_serve_requests_total",
			"Inference requests by outcome.", "code", "503"),
		reqErr: reg.MustCounter("bpar_serve_requests_total",
			"Inference requests by outcome.", "code", "500"),
		reqCanceled: reg.MustCounter("bpar_serve_requests_canceled_total",
			"Requests whose client went away before the answer was ready."),
		rejected: reg.MustCounter("bpar_serve_rejected_sequences_total",
			"Sequences refused by admission control (429)."),
		sequences: reg.MustCounter("bpar_serve_sequences_total",
			"Sequences answered."),
		batches: reg.MustCounter("bpar_serve_batches_total",
			"Micro-batches dispatched to the engine pool."),
		warmed: reg.MustCounter("bpar_serve_warmed_seq_lens_total",
			"Sequence lengths pre-captured by startup warmup."),
		bucketHits: reg.MustCounter("bpar_serve_bucket_hits_total",
			"Sequences dispatched into an already-warm length bucket."),
		bucketMisses: reg.MustCounter("bpar_serve_bucket_misses_total",
			"Sequences that opened a never-seen length bucket."),
		latency: reg.MustHistogram("bpar_serve_request_seconds",
			"End-to-end request latency: admission, batching wait, inference, assembly.",
			obs.DefSecondsBuckets),
		batchFill: reg.MustHistogram("bpar_serve_batch_fill",
			"Real rows over batch capacity of each dispatched micro-batch.",
			fillBuckets),
		stageQueueWait: reg.MustHistogram("bpar_serve_stage_seconds",
			"Per-stage request timing.", obs.DefSecondsBuckets,
			"stage", "queue_wait"),
		stageBatchWait: reg.MustHistogram("bpar_serve_stage_seconds",
			"Per-stage request timing.", obs.DefSecondsBuckets,
			"stage", "batch_wait"),
		stageCompute: reg.MustHistogram("bpar_serve_stage_seconds",
			"Per-stage request timing.", obs.DefSecondsBuckets,
			"stage", "compute"),
		paddingOverhead: reg.MustHistogram("bpar_serve_padding_overhead",
			"Padded-cell fraction (rows and rounded-up frames) per micro-batch.",
			fillBuckets),
	}
	reg.MustGaugeFunc("bpar_serve_queue_depth",
		"Admitted sequences not yet answered.",
		func() float64 { return float64(s.inflight.Load()) })
	reg.MustGaugeFunc("bpar_serve_latency_p50_seconds",
		"Median request latency estimated from the latency histogram.",
		func() float64 { return m.latency.Quantile(0.50) })
	reg.MustGaugeFunc("bpar_serve_latency_p99_seconds",
		"99th-percentile request latency estimated from the latency histogram.",
		func() float64 { return m.latency.Quantile(0.99) })
	reg.MustGaugeFunc("bpar_serve_qps",
		"Completed requests per second, averaged over the server's lifetime.",
		func() float64 {
			up := time.Since(s.start).Seconds()
			if up <= 0 {
				return 0
			}
			return float64(m.reqOK.Value()) / up
		})
	reg.MustGaugeFunc("bpar_serve_template_hit_ratio",
		"Template-cache hit fraction summed over the engine pool; 1.0 after warmup.",
		func() float64 {
			h, miss := s.TemplateStats()
			if h+miss == 0 {
				return 0
			}
			return float64(h) / float64(h+miss)
		})
	return m
}
