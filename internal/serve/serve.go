// Package serve is the inference service built on the engine's replay
// templates: an HTTP layer that answers classification and probability
// requests for a loaded model through dynamic micro-batching.
//
// Requests carry one or more sequences of feature frames. Each sequence is
// admitted into a bounded queue (admission control: the service answers 429
// with Retry-After instead of building an unbounded backlog), grouped by
// sequence length into buckets so the engine's per-(T) workspace and
// template caches stay hot, held for at most a batch window while more rows
// arrive, padded up to the model's batch size, and dispatched to a pool of
// engines — one core.Engine per worker goroutine, because Engine is
// single-threaded by design (it guards against concurrent use with
// core.ErrEngineBusy; the pool is how concurrency is supposed to happen).
//
// Row padding is not computed: the engine runs a partial micro-batch's real
// rows only (Batch.Real), and the forward pass is row-independent, so a
// sequence's probabilities are bitwise identical whether it rides in a full
// batch, a padded one, or alone. Sequence-length padding (Buckets) is made
// inert through the engine's masked-batch path: every micro-batch carries
// Batch.Lens with each row's true length, the engine masks the reverse
// direction at padded steps and gathers each row's final forward state at
// its own boundary, so a bucketed response stays bitwise identical to a
// direct Engine.InferProbs call at the exact length. Frames
// past a micro-batch's longest row are not computed at all. Buckets is the
// production shape — a handful of fixed lengths keeps the per-(T)
// template cache hot regardless of request-length diversity.
package serve

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bpar/internal/core"
	"bpar/internal/data"
	"bpar/internal/obs"
	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// Config parameterizes one Server.
type Config struct {
	// Model is the loaded model every pool engine shares. Weights are only
	// read during forward propagation, so sharing is race-free.
	Model *core.Model

	// Engines is the pool size: one engine, one taskrt runtime, and one
	// worker goroutine each. Defaults to max(1, GOMAXPROCS/4).
	Engines int

	// WorkersPerEngine is each engine runtime's worker-goroutine count.
	// Defaults to 2; Engines*WorkersPerEngine ~ GOMAXPROCS is the natural
	// operating point.
	WorkersPerEngine int

	// BatchWindow is how long a partially filled bucket waits for more rows
	// before dispatching anyway. Defaults to 2ms.
	BatchWindow time.Duration

	// QueueCap bounds the sequences in flight (queued + batching + running).
	// Admission beyond it is refused with 429. Defaults to
	// 8 * Model.Cfg.Batch * Engines, floored at 64.
	QueueCap int

	// Buckets, when non-empty, fixes the admissible sequence lengths to an
	// explicit strictly-increasing boundary set: each sequence is padded up
	// to the smallest boundary >= its length (masked via Batch.Lens, so
	// numerics are unchanged) and sequences beyond the largest boundary are
	// rejected with 400. Empty keeps exact-length buckets (the default).
	// This is the recommended production setting: every engine step then
	// runs at a bucket length, so each engine's workspace and template
	// caches are bounded at len(Buckets) and, once warm, never evict.
	// Without Buckets the engine's default bound applies.
	Buckets []int

	// MaxSeqLen rejects longer sequences with 400. Defaults to 512, or to
	// the largest bucket when Buckets is set (and is capped by it).
	MaxSeqLen int

	// InferDType selects each pool engine's inference dtype. The zero value
	// (tensor.F64) keeps responses bitwise identical to direct float64
	// Engine.InferProbs calls; tensor.F32 converts the weights once per
	// engine at pool construction and serves from the float32 mirror with
	// packed weight panels — faster, within float32 rounding of the f64
	// responses (the model's on-disk checkpoint stays float64 either way).
	InferDType tensor.DType

	// Registry receives the bpar_serve_* and per-engine bpar_engine_*
	// series. Nil metrics go to a private throwaway registry.
	Registry *obs.Registry

	// Profile, when non-nil, is installed as every pool engine runtime's
	// profiling sink, so template replays on the serve path accumulate
	// per-node timing (see internal/prof). The pool shares one sink: each
	// engine captures its own templates, so their profiles stay separate,
	// but worker IDs are runtime-local — idle attribution then reads per
	// engine, not per machine.
	Profile taskrt.ProfileSink
}

func (c *Config) withDefaults() error {
	if c.Model == nil {
		return fmt.Errorf("serve: Config.Model is nil")
	}
	if c.Engines <= 0 {
		c.Engines = max(1, runtime.GOMAXPROCS(0)/4)
	}
	if c.WorkersPerEngine <= 0 {
		c.WorkersPerEngine = 2
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = max(64, 8*c.Model.Cfg.Batch*c.Engines)
	}
	if len(c.Buckets) > 0 {
		bk, err := data.NewBucketer(c.Buckets)
		if err != nil {
			return err
		}
		if c.MaxSeqLen <= 0 || c.MaxSeqLen > bk.Max() {
			c.MaxSeqLen = bk.Max()
		}
	}
	if c.MaxSeqLen <= 0 {
		c.MaxSeqLen = 512
	}
	return nil
}

// item is one admitted sequence flowing queue → bucket → batch → engine.
type item struct {
	frames [][]float64 // origT frames of Model.Cfg.InputSize features
	T      int         // bucketed length (origT unless Buckets is set)
	origT  int
	done   chan itemResult // buffered(1): the worker never blocks on it

	// Stage timestamps: admission (admit), pickup by the batcher (the end of
	// the admission-queue wait), and dispatch into the jobs channel (the end
	// of the batch-window wait). The compute stage is timed per micro-batch.
	admitted   time.Time
	dequeued   time.Time
	dispatched time.Time
}

// headProbs is one head's slice of a sequence answer: a single row for a
// classification head, origT rows (one per real timestep) for a per-frame
// head, each the head's Classes wide.
type headProbs struct {
	kind core.HeadKind
	rows [][]float64
}

type itemResult struct {
	heads []headProbs // one entry per model head, declaration order
	err   error
}

// microBatch is one dispatched unit of work: same-T items padded to
// Model.Cfg.Batch rows by the worker.
type microBatch struct {
	T     int
	items []*item
}

// Server is the micro-batching inference service.
type Server struct {
	cfg   Config
	bk    *data.Bucketer // nil unless Config.Buckets is set
	start time.Time

	// mu serializes admission against drain: handlers hold the read side
	// while checking closed and sending to queue, Drain holds the write
	// side while flipping closed and closing the queue, so no send can race
	// the close.
	mu     sync.RWMutex
	closed bool

	queue    chan *item
	jobs     chan *microBatch
	inflight atomic.Int64 // admitted items not yet completed

	engines []*core.Engine
	rts     []*taskrt.Runtime
	wg      sync.WaitGroup

	met       *metrics
	drainOnce sync.Once
	drainErr  error
}

// New builds the server, its engine pool, and the batching pipeline, and
// starts the background goroutines. Callers mount Routes on an HTTP mux and
// must eventually call Drain.
func New(cfg Config) (*Server, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		start: time.Now(),
		queue: make(chan *item, cfg.QueueCap),
		jobs:  make(chan *microBatch, cfg.Engines),
	}
	if len(cfg.Buckets) > 0 {
		// Already validated by withDefaults.
		s.bk, _ = data.NewBucketer(cfg.Buckets)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.met = newMetrics(reg, s)

	for i := 0; i < cfg.Engines; i++ {
		rt := taskrt.New(taskrt.Options{Workers: cfg.WorkersPerEngine, Profile: cfg.Profile})
		eng := core.NewEngine(cfg.Model, rt)
		eng.MaxCachedSeqLens = len(cfg.Buckets)
		eng.InferDType = cfg.InferDType
		eng.EnableObs(reg, "engine", strconv.Itoa(i))
		s.rts = append(s.rts, rt)
		s.engines = append(s.engines, eng)
	}

	s.wg.Add(1 + cfg.Engines)
	go s.batcher()
	for i := 0; i < cfg.Engines; i++ {
		go s.worker(i)
	}
	obs.Logger("serve").Info("inference service started",
		"engines", cfg.Engines, "workers_per_engine", cfg.WorkersPerEngine,
		"batch_window", cfg.BatchWindow, "queue_cap", cfg.QueueCap,
		"dtype", cfg.InferDType.String(),
		"model", cfg.Model.Cfg.String())
	return s, nil
}

// bucketLen returns the bucketed sequence length for an original length:
// the enclosing bucket boundary when Buckets is set, otherwise origT itself.
// Admission has already bounded origT by MaxSeqLen, which withDefaults
// capped at the largest bucket.
func (s *Server) bucketLen(origT int) int {
	if s.bk != nil {
		return s.bk.Round(origT)
	}
	return origT
}

// Warm captures the forward template of each given original sequence length
// on every pool engine, so the first real requests replay instead of paying
// graph capture. Lengths are bucketed the same way admission buckets them.
func (s *Server) Warm(seqLens []int) error {
	cfg := s.cfg.Model.Cfg
	for _, origT := range seqLens {
		T := s.bucketLen(origT)
		X := make([]*tensor.Matrix, T)
		for t := range X {
			X[t] = tensor.New(cfg.Batch, cfg.InputSize)
		}
		for _, eng := range s.engines {
			if _, _, err := eng.InferProbs(&core.Batch{X: X, Real: 1}); err != nil {
				return fmt.Errorf("serve: warmup T=%d: %w", T, err)
			}
		}
		s.met.warmed.Inc()
	}
	return nil
}

// admit places a request's sequences into the queue, all or nothing.
// Returns 0 on success or the HTTP status to answer with.
func (s *Server) admit(items []*item) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 503
	}
	n := int64(len(items))
	if s.inflight.Add(n) > int64(s.cfg.QueueCap) {
		s.inflight.Add(-n)
		s.met.rejected.Add(n)
		return 429
	}
	// The sends cannot block: items in the channel are a subset of inflight,
	// which the check above bounded by the channel capacity.
	now := time.Now()
	for _, it := range items {
		it.admitted = now
		s.queue <- it
	}
	return 0
}

// worker owns one engine: it pads each micro-batch to the configured batch
// size, runs forward propagation, and completes every item.
func (s *Server) worker(i int) {
	defer s.wg.Done()
	eng := s.engines[i]
	for mb := range s.jobs {
		s.runBatch(eng, mb)
	}
}

// runBatch executes one micro-batch on eng and delivers per-item results.
func (s *Server) runBatch(eng *core.Engine, mb *microBatch) {
	computeStart := time.Now()
	cfg := s.cfg.Model.Cfg
	X := make([]*tensor.Matrix, mb.T)
	for t := range X {
		X[t] = tensor.New(cfg.Batch, cfg.InputSize)
	}
	short := false
	for r, it := range mb.items {
		for t, frame := range it.frames {
			copy(X[t].Row(r), frame)
		}
		if it.origT < mb.T {
			short = true
		}
		// Frames [len(it.frames), T) — rounded-up length padding — and rows
		// [len(items), Batch) — partial-batch padding, which the engine never
		// computes — stay zero.
	}
	// Lens makes length padding bitwise-inert, and the engine skips every
	// timestep past the longest real row; nil when every row spans the full T
	// keeps the exact legacy path (the template is shared either way).
	var lens []int
	if short {
		lens = make([]int, cfg.Batch)
		for r := range lens {
			lens[r] = 1 // padding rows: any valid length, never read
		}
		for r, it := range mb.items {
			lens[r] = it.origT
		}
	}
	probs, _, err := eng.InferProbs(&core.Batch{X: X, Real: len(mb.items), Lens: lens})
	results := make([]itemResult, len(mb.items))
	specs := cfg.HeadSpecs()
	for r, it := range mb.items {
		if err != nil {
			results[r].err = err
			continue
		}
		heads := make([]headProbs, len(specs))
		for h, spec := range specs {
			lo, _ := cfg.HeadSlotRange(h, mb.T)
			rows := 1
			if spec.Kind.PerFrame() {
				rows = it.origT // drop rounded-up padding frames
			}
			out := make([][]float64, rows)
			for j := range out {
				out[j] = append([]float64(nil), probs[lo+j].Row(r)...)
			}
			heads[h] = headProbs{kind: spec.Kind, rows: out}
		}
		results[r].heads = heads
	}
	// The batch is recorded before any item is answered, so a client holding
	// its answer always finds the batch in the metrics.
	s.met.batches.Inc()
	s.met.sequences.Add(int64(len(mb.items)))
	s.met.batchFill.Observe(float64(len(mb.items)) / float64(cfg.Batch))
	s.met.stageCompute.Observe(time.Since(computeStart).Seconds())
	// Padding overhead: the fraction of the micro-batch's cells (batch rows ×
	// bucket frames) that were zero padding — row padding up to cfg.Batch
	// plus rounded-up sequence-length padding — reported both overall and
	// per length bucket. The engine skips padding rows and the frames past
	// the longest row, and computes only the padded frames of real rows
	// shorter than the longest, so this overstates the compute batching
	// wastes; the definition is kept so the figure stays comparable.
	useful := 0
	for _, it := range mb.items {
		useful += it.origT
	}
	total := cfg.Batch * mb.T
	if total > 0 {
		s.met.paddingOverhead.Observe(1 - float64(useful)/float64(total))
		bm := s.met.forBucket(mb.T)
		bm.rows.Add(int64(len(mb.items)))
		bm.batches.Inc()
		bm.fill.Observe(float64(len(mb.items)) / float64(cfg.Batch))
		bm.padOverhead.Observe(1 - float64(useful)/float64(total))
	}
	for r, it := range mb.items {
		it.done <- results[r]
	}
	s.inflight.Add(-int64(len(mb.items)))
}

// TemplateStats sums template-cache hits and misses across the engine pool.
// After warmup every serve-path step should be a hit: misses growing in
// steady state mean the exact-length working set (no Buckets) exceeds the
// engine's workspace cache bound.
func (s *Server) TemplateStats() (hits, misses int64) {
	for _, eng := range s.engines {
		h, m := eng.TemplateStats()
		hits += h
		misses += m
	}
	return hits, misses
}

// Drain performs graceful shutdown: stop admitting (503 from then on),
// flush every pending bucket, finish every admitted sequence, then shut the
// engine runtimes down. It returns nil once all work completed, or the
// context error if ctx expired first (runtimes are then left running for
// the process to tear down). Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		close(s.queue)
		s.mu.Unlock()
		obs.Logger("serve").Info("draining", "inflight", s.inflight.Load())

		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
			for _, rt := range s.rts {
				rt.Shutdown()
			}
			obs.Logger("serve").Info("drained")
		case <-ctx.Done():
			s.drainErr = fmt.Errorf("serve: drain aborted with %d sequences in flight: %w",
				s.inflight.Load(), ctx.Err())
			obs.Logger("serve").Warn("drain aborted", "err", s.drainErr)
		}
	})
	return s.drainErr
}
