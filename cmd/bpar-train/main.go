// Command bpar-train trains a BRNN with the B-Par execution model on the
// synthetic TIDIGITS (many-to-one speech) or Wikipedia (many-to-many next
// character) workloads, natively on this machine's cores, and reports loss
// and accuracy per epoch plus runtime statistics as structured log records.
//
// With -listen, a telemetry endpoint serves live scheduler/engine/tensor
// metrics in Prometheus text format at /metrics, liveness at /healthz, and
// the standard pprof profiles at /debug/pprof/ for the duration of the run.
// For headless runs, -cpuprofile and -memprofile write runtime/pprof files
// directly. With -profile-out, per-node timings of the replayed step
// templates are dumped to that file at exit for bpar-prof, which reports
// them and renders the schedule as a Chrome trace. With -dump-templates, the
// same templates' declared keys and edges are dumped, in the same format
// with no timings, for bpar-vet -graph.
//
// Usage:
//
//	bpar-train -task speech -cell lstm -layers 2 -hidden 64 -epochs 5
//	bpar-train -task text -cell gru -layers 2 -hidden 128 -seq 32
//	bpar-train -task speech -listen :8080          # curl localhost:8080/metrics
//	bpar-train -task speech -cpuprofile cpu.pprof
//	bpar-train -task speech -profile-out profile.json && bpar-prof -chrome trace.json profile.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bpar/internal/core"
	"bpar/internal/data"
	"bpar/internal/obs"
	"bpar/internal/prof"
	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// options collects every flag so run stays a single-argument call.
type options struct {
	task, cell string
	heads      string
	layers     int
	hidden     int
	seq        int
	batch      int
	mbs        int
	epochs     int
	steps      int
	lr         float64
	workers    int
	depCheck   bool
	inferDtype string
	seed       uint64
	profOut    string
	dumpTpls   string
	listen     string
	cpuProfile string
	memProfile string
	logLevel   string
}

func main() {
	var o options
	flag.StringVar(&o.task, "task", "speech", "workload: speech (many-to-one), text (many-to-many), or tagging (variable-length, bucketed, every label kind)")
	flag.StringVar(&o.heads, "heads", "", "comma-separated output heads sharing the trunk, each kind[:classes] with kind classify, tag, or generate (classes default to the task's class count); empty keeps the task's single legacy head. Per-frame heads need per-frame labels — use -task tagging or text")
	flag.StringVar(&o.cell, "cell", "lstm", "cell type: lstm, gru, or rnn")
	flag.IntVar(&o.layers, "layers", 2, "stacked BRNN layers")
	flag.IntVar(&o.hidden, "hidden", 64, "hidden size")
	flag.IntVar(&o.seq, "seq", 16, "sequence length")
	flag.IntVar(&o.batch, "batch", 32, "batch size")
	flag.IntVar(&o.mbs, "mbs", 2, "data-parallel mini-batches (mbs:N)")
	flag.IntVar(&o.epochs, "epochs", 5, "training epochs")
	flag.IntVar(&o.steps, "steps", 20, "batches per epoch")
	flag.Float64Var(&o.lr, "lr", 0.1, "learning rate")
	flag.IntVar(&o.workers, "workers", runtime.GOMAXPROCS(0), "worker goroutines")
	flag.BoolVar(&o.depCheck, "depcheck", false, "enable the dependency sanitizer: verify every tensor access against declared In/Out/InOut edges (slow; serializes task bodies)")
	flag.StringVar(&o.inferDtype, "infer-dtype", "f64", "dtype for the per-epoch eval pass: f64 (exact) or f32 (float32 mirror, refreshed after every weight update; training itself always runs f64)")
	flag.Uint64Var(&o.seed, "seed", 1, "random seed")
	flag.StringVar(&o.profOut, "profile-out", "", "accumulate per-node timing over the replayed task graphs and write the profile dump to this file at exit (see bpar-prof; bpar-prof -chrome renders the schedule timeline)")
	flag.StringVar(&o.dumpTpls, "dump-templates", "", "write every cached step template (with named dependency keys) to this file at exit, for bpar-vet -graph")
	flag.StringVar(&o.listen, "listen", "", "serve /metrics, /healthz, and /debug/pprof on this address (e.g. :8080) during the run")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	flag.StringVar(&o.logLevel, "log-level", "info", "log level: debug, info, warn, or error")
	flag.Parse()

	if err := obs.InitLogging(os.Stderr, o.logLevel); err != nil {
		fmt.Fprintln(os.Stderr, "bpar-train:", err)
		os.Exit(2)
	}
	// One signal stops cleanly between steps (epoch summary, profile dump,
	// and telemetry teardown still run); a second kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o); err != nil {
		obs.Logger("cmd").Error("bpar-train failed", "err", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, o options) error {
	log := obs.Logger("cmd")

	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("start cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
		log.Info("cpu profiling enabled", "file", o.cpuProfile)
	}

	cellKind, err := core.ParseCellKind(o.cell)
	if err != nil {
		return err
	}

	cfg := core.Config{
		Cell: cellKind, Merge: core.MergeSum,
		HiddenSize: o.hidden, Layers: o.layers, SeqLen: o.seq,
		Batch: o.batch, MiniBatches: o.mbs, Seed: o.seed,
	}

	var nextBatch func() *core.Batch
	switch o.task {
	case "speech":
		cfg.Arch = core.ManyToOne
		cfg.InputSize = 20
		cfg.Classes = data.NumDigits
		corpus := data.NewSpeechCorpus(cfg.InputSize, o.seed)
		nextBatch = func() *core.Batch { return corpus.Batch(o.batch, o.seq) }
	case "text":
		cfg.Arch = core.ManyToMany
		const vocab = 48
		cfg.InputSize = vocab
		cfg.Classes = vocab
		corpus := data.NewTextCorpus(vocab, 200_000, o.seed)
		nextBatch = func() *core.Batch { return corpus.Batch(o.batch, o.seq) }
	case "tagging":
		// Variable-length sequences with every label kind at once: dominant
		// symbol (classify), neighbour-sum tag (tag/generate). Lengths are
		// bucketed to two boundaries; short rows ride masked via Batch.Lens.
		if o.seq < 2 {
			return fmt.Errorf("tagging needs -seq >= 2")
		}
		cfg.Arch = core.ManyToMany
		const vocab = 16
		cfg.InputSize = vocab
		cfg.Classes = vocab
		corpus := data.NewTagCorpus(vocab, 2, o.seq, o.seed)
		bk, err := data.NewBucketer([]int{(o.seq + 1) / 2, o.seq})
		if err != nil {
			return err
		}
		nextBatch = data.NewBucketBatcher(corpus, bk, o.batch).Next
	default:
		return fmt.Errorf("unknown task %q", o.task)
	}
	if o.heads != "" {
		heads, err := parseHeads(o.heads, cfg.Classes)
		if err != nil {
			return err
		}
		cfg.Heads = heads
	}

	model, err := core.NewModel(cfg)
	if err != nil {
		return err
	}
	var profiler *prof.GraphProfiler
	var psink taskrt.ProfileSink
	if o.profOut != "" {
		profiler = prof.NewGraphProfiler()
		psink = profiler
	}
	rt := taskrt.New(taskrt.Options{Workers: o.workers, DepCheck: o.depCheck, Profile: psink})
	defer rt.Shutdown()
	if o.depCheck {
		defer tensor.SetAccessHook(nil)
		obs.Logger("cmd").Info("depcheck enabled: task bodies serialized, every tensor access verified")
	}
	eng := core.NewEngine(model, rt)
	eng.GradClip = 1.0
	inferDT, err := tensor.ParseDType(o.inferDtype)
	if err != nil {
		return err
	}
	eng.InferDType = inferDT

	// Live telemetry: scheduler, engine, tensor, profile, and process series
	// on one registry, served for the duration of the run.
	reg := obs.NewRegistry()
	obs.RegisterProcessMetrics(reg)
	rt.RegisterMetrics(reg)
	eng.EnableObs(reg)
	tensor.RegisterMetrics(reg)
	if profiler != nil {
		prof.RegisterMetrics(reg, profiler, o.workers)
	}
	if o.listen != "" {
		srv, addr, err := obs.Serve(o.listen, reg)
		if err != nil {
			return err
		}
		// Graceful teardown: a scrape caught mid-exposition finishes
		// before the process exits, instead of being dropped by Close.
		defer obs.ShutdownServer(srv, 2*time.Second)
		log.Info("telemetry listening", "addr", addr,
			"endpoints", "/metrics /healthz /debug/pprof/")
	}

	log.Info("training started",
		"task", o.task, "config", cfg.String(),
		"params", model.ParamCount(), "head_params", cfg.HeadParamCount(),
		"workers", o.workers)

	evalBatch := nextBatch()
	interrupted := false
	for epoch := 1; epoch <= o.epochs && !interrupted; epoch++ {
		start := time.Now()
		lossSum := 0.0
		steps := 0
		var headSums []float64
		for s := 0; s < o.steps; s++ {
			if ctx.Err() != nil {
				interrupted = true
				break
			}
			loss, err := eng.TrainStep(nextBatch(), o.lr)
			if err != nil {
				return err
			}
			lossSum += loss
			if hl := eng.HeadLosses(); len(hl) > 1 {
				if headSums == nil {
					headSums = make([]float64, len(hl))
				}
				for i, v := range hl {
					headSums[i] += v
				}
			}
			steps++
		}
		if steps == 0 {
			break
		}
		preds, evalLoss, err := eng.Infer(evalBatch)
		if err != nil {
			return err
		}
		st := rt.Stats()
		// The epoch record carries the same counters /metrics exports, so
		// logs and scrapes cross-reference directly.
		log.Info("epoch",
			"epoch", epoch,
			"train_loss", lossSum/float64(steps),
			"eval_loss", evalLoss,
			"accuracy", accuracy(preds, evalBatch, cfg),
			"duration", time.Since(start).Round(time.Millisecond),
			"tasks_executed", st.Executed,
			"overhead_ratio", st.OverheadRatio(),
			"gemm_flops", tensor.GEMMFlops())
		if headSums != nil {
			// Per-head training loss: how the shared trunk's heads fit
			// individually (the epoch's train_loss is their pooled value).
			parts := make([]string, len(headSums))
			for h, spec := range cfg.HeadSpecs() {
				parts[h] = fmt.Sprintf("h%d:%s=%.4f", h, spec.Kind, headSums[h]/float64(steps))
			}
			log.Info("epoch head losses", "epoch", epoch, "losses", strings.Join(parts, " "))
		}
	}

	if interrupted {
		log.Info("interrupted, stopping after current step")
	}

	st := rt.Stats()
	log.Info("runtime summary",
		"tasks_executed", st.Executed,
		"overhead_ratio", st.OverheadRatio(),
		"peak_parallel_tasks", st.MaxRunning,
		"worker_idle", time.Duration(st.IdleNS()))

	if profiler != nil {
		pd := profiler.Snapshot(o.workers)
		pd.SchedOverheadRatio = st.OverheadRatio()
		if err := pd.WriteFile(o.profOut); err != nil {
			return err
		}
		log.Info("profile dump written", "file", o.profOut,
			"templates", profiler.Templates(), "replays", profiler.Replays(),
			"reader", "bpar-prof "+o.profOut)
	}

	if o.dumpTpls != "" {
		df := eng.DumpTemplates()
		if err := df.WriteFile(o.dumpTpls); err != nil {
			return err
		}
		log.Info("template dump written", "file", o.dumpTpls,
			"templates", len(df.Templates), "reader", "bpar-vet -graph "+o.dumpTpls)
	}

	if o.memProfile != "" {
		f, err := os.Create(o.memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // materialize up-to-date heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("write heap profile: %w", err)
		}
		log.Info("heap profile written", "file", o.memProfile)
	}
	return nil
}

// parseHeads decodes the -heads flag: comma-separated kind[:classes] specs.
func parseHeads(s string, defClasses int) ([]core.HeadSpec, error) {
	var out []core.HeadSpec
	for _, part := range strings.Split(s, ",") {
		kindStr, classStr, hasClasses := strings.Cut(strings.TrimSpace(part), ":")
		kind, err := core.ParseHeadKind(kindStr)
		if err != nil {
			return nil, err
		}
		classes := defClasses
		if hasClasses {
			n, err := strconv.Atoi(classStr)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("bad head classes in %q", part)
			}
			classes = n
		}
		out = append(out, core.HeadSpec{Kind: kind, Classes: classes})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -heads")
	}
	return out, nil
}

// accuracy computes label accuracy pooled over every head's slots, skipping
// IgnoreLabel frames (masked padding) and, for generate heads, scoring frame
// t against the shifted label StepTargets[t+1].
func accuracy(preds [][]int, b *core.Batch, cfg core.Config) float64 {
	T := b.SeqLen()
	correct, total := 0, 0
	score := func(p, want int) {
		if want == tensor.IgnoreLabel {
			return
		}
		if p == want {
			correct++
		}
		total++
	}
	for h, spec := range cfg.HeadSpecs() {
		lo, n := cfg.HeadSlotRange(h, T)
		switch spec.Kind {
		case core.HeadClassify:
			if b.Targets == nil {
				continue
			}
			for i, p := range preds[lo] {
				score(p, b.Targets[i])
			}
		case core.HeadTag:
			if b.StepTargets == nil {
				continue
			}
			for t := 0; t < n; t++ {
				for i, p := range preds[lo+t] {
					score(p, b.StepTargets[t][i])
				}
			}
		case core.HeadGenerate:
			if b.StepTargets == nil {
				continue
			}
			for t := 0; t+1 < T; t++ {
				for i, p := range preds[lo+t] {
					score(p, b.StepTargets[t+1][i])
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}
