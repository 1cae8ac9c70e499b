package core

import (
	"time"

	"bpar/internal/obs"
)

// engineObs holds the engine's live metric series. All recording happens on
// the driver goroutine at step granularity (never inside task bodies), so
// enabling it costs a handful of atomic stores per step.
type engineObs struct {
	steps        *obs.Counter
	trainSeconds *obs.Histogram
	inferSeconds *obs.Histogram
	loss         *obs.Gauge
	seqPerSec    *obs.Gauge
	batchFill    *obs.Gauge
	cacheHits    *obs.Counter
	cacheMisses  *obs.Counter
	cacheEvicts  *obs.Counter
	tplCaptureNS *obs.Counter
}

// EnableObs registers the engine's live metrics on reg under bpar_engine_*
// and turns on per-step recording. labels are optional constant key/value
// pairs appended to every series — an engine pool (internal/serve) passes
// ("engine", "<idx>") so its engines coexist on one registry; without
// distinguishing labels, registering two engines on the same registry panics
// on name collision. The template hit/miss series count from engine
// construction; the others from this call.
func (e *Engine) EnableObs(reg *obs.Registry, labels ...string) {
	lbl := func(extra ...string) []string {
		return append(append([]string(nil), extra...), labels...)
	}
	e.obs = &engineObs{
		steps: reg.MustCounter("bpar_engine_steps_total",
			"Completed engine steps.", lbl("op", "train")...),
		trainSeconds: reg.MustHistogram("bpar_engine_step_seconds",
			"Wall time of one engine step.", obs.DefSecondsBuckets, lbl("op", "train")...),
		inferSeconds: reg.MustHistogram("bpar_engine_step_seconds",
			"Wall time of one engine step.", obs.DefSecondsBuckets, lbl("op", "infer")...),
		loss: reg.MustGauge("bpar_engine_loss",
			"Mean loss of the most recent labeled step.", lbl()...),
		seqPerSec: reg.MustGauge("bpar_engine_sequences_per_second",
			"Real (non-padding) sequence throughput of the most recent step.", lbl()...),
		batchFill: reg.MustGauge("bpar_engine_batch_fill_ratio",
			"Real rows over configured batch size in the most recent step.", lbl()...),
		cacheHits: reg.MustCounter("bpar_engine_workspace_cache_hits_total",
			"Workspace lookups served from the sequence-length cache.", lbl()...),
		cacheMisses: reg.MustCounter("bpar_engine_workspace_cache_misses_total",
			"Workspace lookups that had to build new workspaces.", lbl()...),
		cacheEvicts: reg.MustCounter("bpar_engine_workspace_cache_evictions_total",
			"Workspace sets evicted from the sequence-length LRU cache.", lbl()...),
		tplCaptureNS: reg.MustCounter("bpar_engine_template_capture_ns_total",
			"Cumulative wall time spent capturing and freezing task-graph templates, in nanoseconds.", lbl()...),
	}
	// Template lookups are counted once, by the always-on TemplateStats
	// atomics; the series read them at scrape time.
	reg.MustCounterFunc("bpar_engine_template_hits_total",
		"Steps served by replaying a cached task-graph template.",
		func() float64 { return float64(e.tplHitN.Load()) }, lbl()...)
	reg.MustCounterFunc("bpar_engine_template_misses_total",
		"Steps that had to capture a new task-graph template.",
		func() float64 { return float64(e.tplMissN.Load()) }, lbl()...)
}

// recordStep publishes the latency, loss, and throughput of one completed
// step. infer selects the op="infer" histogram lane. hasLoss is false for
// unlabeled inference batches, whose loss is not meaningful — publishing it
// would clobber the last real training loss with 0.0. seqs is the number of
// real (non-padding) sequences the step carried.
func (e *Engine) recordStep(start time.Time, loss float64, infer, hasLoss bool, seqs int) {
	if e.obs == nil {
		return
	}
	dur := time.Since(start).Seconds()
	if infer {
		e.obs.inferSeconds.Observe(dur)
	} else {
		e.obs.trainSeconds.Observe(dur)
		e.obs.steps.Inc()
	}
	if hasLoss {
		e.obs.loss.Set(loss)
	}
	if dur > 0 {
		e.obs.seqPerSec.Set(float64(seqs) / dur)
	}
	if b := e.M.Cfg.Batch; b > 0 {
		e.obs.batchFill.Set(float64(seqs) / float64(b))
	}
}
