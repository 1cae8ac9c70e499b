package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"bpar/internal/core"
	"bpar/internal/data"
	"bpar/internal/prof"
	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// Trainer settings are bpar-train's defaults, so the benchmark times the
// step a user of the CLI gets.
const (
	learnRate = 0.1
	gradClip  = 1.0
)

// oracleSteps is how many leading losses are compared bitwise against the
// fresh-emission engine.
const oracleSteps = 3

// trainEnv is one model, runtime and engine after its first step.
type trainEnv struct {
	w      *workload
	corpus *data.SpeechCorpus
	rt     *taskrt.Runtime
	eng    *core.Engine
	gp     *prof.GraphProfiler // nil unless profiled

	setup     time.Duration // NewModel + runtime + NewEngine + first step
	firstStep time.Duration // the first step alone: template capture + one step
	losses    []float64     // every loss so far, the set-up step first
}

// newTrainEnv builds the workload's trainer and runs its first step, which
// captures the task-graph template and allocates the workspaces. The corpus
// and the first batch are inputs and are made before the clock starts.
func newTrainEnv(w *workload, seed uint64, profile bool) (*trainEnv, error) {
	e := &trainEnv{w: w, corpus: data.NewSpeechCorpus(w.cfg.InputSize, seed)}
	b0 := e.corpus.Batch(w.cfg.Batch, w.cfg.SeqLen)

	t0 := time.Now()
	cfg := w.cfg
	cfg.Seed = seed
	m, err := core.NewModel(cfg)
	if err != nil {
		return nil, err
	}
	opts := taskrt.Options{Workers: procs, Policy: taskrt.LocalityAware}
	if profile {
		e.gp = prof.NewGraphProfiler()
		opts.Profile = e.gp
	}
	e.rt = taskrt.New(opts)
	e.eng = core.NewEngine(m, e.rt)
	e.eng.GradClip = gradClip
	t1 := time.Now()
	loss, err := e.eng.TrainStep(b0, learnRate)
	if err != nil {
		e.rt.Shutdown()
		return nil, fmt.Errorf("first step: %w", err)
	}
	end := time.Now()
	e.setup, e.firstStep = end.Sub(t0), end.Sub(t1)
	e.losses = []float64{loss}
	return e, nil
}

func (e *trainEnv) close() { e.rt.Shutdown() }

// stepLog is what one closed-loop training phase measured.
type stepLog struct {
	batchMS []float64       // data.SpeechCorpus.Batch, per step
	trainMS []float64       // Engine.TrainStep, per step
	stepMS  []float64       // both: what the trainer waits for
	done    []time.Duration // completion offsets from the phase start
	span    time.Duration
	failed  int // steps that returned an error or a non-finite loss
}

// run is the closed loop: one trainer that draws a fresh batch and waits for
// its step, for d.
func (e *trainEnv) run(d time.Duration) stepLog {
	var l stepLog
	start := time.Now()
	for time.Since(start) < d {
		t0 := time.Now()
		b := e.corpus.Batch(e.w.cfg.Batch, e.w.cfg.SeqLen)
		t1 := time.Now()
		loss, err := e.eng.TrainStep(b, learnRate)
		t2 := time.Now()
		if err != nil || math.IsNaN(loss) || math.IsInf(loss, 0) {
			l.failed++
		}
		e.losses = append(e.losses, loss)
		l.batchMS = append(l.batchMS, ms(t1.Sub(t0)))
		l.trainMS = append(l.trainMS, ms(t2.Sub(t1)))
		l.stepMS = append(l.stepMS, ms(t2.Sub(t0)))
		l.done = append(l.done, t2.Sub(start))
	}
	l.span = time.Since(start)
	return l
}

// trainOracle returns the first oracleSteps losses of the repo's own
// fresh-emission oracle: a second engine on the inline executor with replay
// off, fed the batches an identically seeded corpus produces.
func trainOracle(w *workload, seed uint64) ([]float64, error) {
	cfg := w.cfg
	cfg.Seed = seed
	m, err := core.NewModel(cfg)
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine(m, taskrt.NewInline(nil))
	eng.GradClip = gradClip
	eng.NoReplay = true
	corpus := data.NewSpeechCorpus(cfg.InputSize, seed)
	out := make([]float64, oracleSteps)
	for i := range out {
		out[i], err = eng.TrainStep(corpus.Batch(cfg.Batch, cfg.SeqLen), learnRate)
		if err != nil {
			return nil, fmt.Errorf("oracle step %d: %w", i, err)
		}
	}
	return out, nil
}

// lossMismatches counts the leading losses that differ bitwise from the
// oracle's (a missing loss counts as a mismatch).
func lossMismatches(got, want []float64) int {
	bad := 0
	for i, w := range want {
		if i >= len(got) || math.Float64bits(got[i]) != math.Float64bits(w) {
			bad++
		}
	}
	return bad
}

// heapInuseMB is HeapInuse after a forced collection.
func heapInuseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// setupRuns is how many times a pass sets the workload up; setup_s is the
// median, because a single cold set-up is the noisiest number in the run.
const setupRuns = 3

// runTrain is the untraced pass of a train workload.
func runTrain(w *workload, seed uint64, d time.Duration) (*result, error) {
	want, err := trainOracle(w, seed)
	if err != nil {
		return nil, err
	}
	var env *trainEnv
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if env != nil {
			env.close()
		}
		if env, err = newTrainEnv(w, seed, false); err != nil {
			return nil, err
		}
		setups = append(setups, env.setup.Seconds())
	}
	defer env.close()

	l := env.run(d)
	heap := heapInuseMB()

	r := &result{Attempted: len(l.stepMS), Failed: l.failed + lossMismatches(env.losses, want), Metrics: metrics{}}
	r.Metrics.setN("setup_s", median(setups), "s", len(setups))
	r.Metrics.setN("steps_per_s", windowRate(l.done, l.span, rateWindows), "1/s", len(l.done))
	r.Metrics.setN("step_ms_p50", percentile(l.stepMS, 0.5), "ms", len(l.stepMS))
	r.Metrics.setN("step_ms_p90", percentile(l.stepMS, 0.9), "ms", len(l.stepMS))
	r.Metrics.set("heap_inuse_mb", heap, "MB")
	return r, nil
}

// add appends a later segment of the same loop.
func (l *stepLog) add(o stepLog) {
	l.batchMS = append(l.batchMS, o.batchMS...)
	l.trainMS = append(l.trainMS, o.trainMS...)
	l.stepMS = append(l.stepMS, o.stepMS...)
	for _, d := range o.done {
		l.done = append(l.done, l.span+d)
	}
	l.span += o.span
	l.failed += o.failed
}

// runTrainLayers is the traced pass of a train workload: a profiled trainer
// and an untraced reference trainer (the always-on counters, and the base of
// the tracing overhead and of the reconciliation), then the direct-call
// probes. The reference segment runs between two halves of the profiled one,
// so a host that drifts faster or slower during the pass moves both alike.
func runTrainLayers(w *workload, seed uint64, d time.Duration) (*result, error) {
	ref, err := newTrainEnv(w, seed, false)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	tr, err := newTrainEnv(w, seed, true)
	if err != nil {
		return nil, err
	}
	defer tr.close()
	m := metrics{}

	before := tr.gp.Snapshot(procs)
	tl := tr.run(d / 4)

	// Reference segment: counters that need no tracing.
	st0, fl0, calls0 := ref.rt.Stats(), tensor.GEMMFlops(), tensor.GEMMCalls()
	hit0, miss0 := ref.eng.TemplateStats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rl := ref.run(d * 3 / 10)
	runtime.ReadMemStats(&ms1)
	st1, fl1, calls1 := ref.rt.Stats(), tensor.GEMMFlops(), tensor.GEMMCalls()
	hit1, miss1 := ref.eng.TemplateStats()

	tl.add(tr.run(d / 4))
	pr := profileDelta(tr.gp.Snapshot(procs), before)

	steps := float64(len(rl.stepMS))
	executed := float64(st1.Executed - st0.Executed)
	m.set("taskrt.nodes_per_op", executed/steps, "count")
	m.set("taskrt.overhead_ratio", ratio(float64(st1.SubmitNS+st1.CompleteNS-st0.SubmitNS-st0.CompleteNS), float64(st1.TaskNS-st0.TaskNS)), "ratio")
	m.set("taskrt.idle_frac", ratio(float64(st1.IdleNS()-st0.IdleNS()), float64(procs)*float64(rl.span)), "share")
	m.set("taskrt.steals_per_op", float64(st1.Steals-st0.Steals)/steps, "count")
	m.set("taskrt.local_hit_frac", ratio(float64(st1.LocalHits-st0.LocalHits), executed), "share")
	m.set("tensor.gemm_flops_per_op", float64(fl1-fl0)/steps, "flop")
	m.set("tensor.gemm_calls_per_op", float64(calls1-calls0)/steps, "count")
	m.set("core.alloc_kb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/steps, "KB")
	m.set("core.tpl_hit_ratio", ratio(float64(hit1-hit0), float64(hit1-hit0+miss1-miss0)), "share")
	m.set("core.ws_mb", float64(ref.eng.WorkingSetBytes(w.cfg.SeqLen))/(1<<20), "MB")

	pr.into(m)
	m.setN("data.batch_ms", mean(tl.batchMS), "ms", len(tl.batchMS))
	m.set("data.wait_frac", ratio(mean(tl.batchMS), mean(tl.stepMS)), "share")
	m.set("core.host_ms", mean(tl.trainMS)-pr.elapsedMS, "ms")
	m.set("core.capture_ms", ms(tr.firstStep)-percentile(tl.trainMS, 0.5), "ms")
	// The profiler accumulates sums, so the parts are per-step means; the
	// whole they must add up to is the untraced mean step, not its median,
	// or the check would measure the skew of the step-time distribution.
	whole := mean(rl.stepMS)
	m.set("core.recon_err_frac", ratio(math.Abs(whole-(m.val("data.batch_ms")+pr.elapsedMS+m.val("core.host_ms"))), whole), "share")
	// One trainer in a closed loop: throughput is the reciprocal of the mean step.
	m.set("prof.trace_overhead_frac", 1-ratio(whole, mean(tl.stepMS)), "share")

	probeLayers(w, m)
	m.set("tensor.gemm_est_share", gemmEstShare(w, m), "share")

	return &result{
		Attempted: len(rl.stepMS) + len(tl.stepMS),
		Failed:    rl.failed + tl.failed,
		Metrics:   m,
	}, nil
}

// ratio is a÷b, 0 when b is 0 (an idle counter over an empty interval).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
