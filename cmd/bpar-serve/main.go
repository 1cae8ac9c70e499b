// Command bpar-serve answers classification and probability requests for a
// trained BRNN checkpoint over HTTP, through dynamic micro-batching on a
// pool of B-Par engines (internal/serve).
//
// Endpoints:
//
//	POST /v1/probs     {"sequences": [[[...frame...], ...], ...]} → full distributions
//	POST /v1/classify  same body → argmax labels
//	GET  /metrics      Prometheus text exposition (serve + engine + process series)
//	GET  /healthz      liveness
//	GET  /debug/pprof  standard profiles
//
// SIGINT/SIGTERM drains gracefully: the listener stops accepting, in-flight
// requests finish, every admitted sequence is answered, then the process
// exits.
//
// With -buckets, every engine step runs at a bucket length, so each engine
// caches one workspace set and template per bucket and never evicts. With
// -profile-out, per-node timings of the replayed templates are written to
// that file after drain, for bpar-prof.
//
// Usage:
//
//	bpar-serve -model model.bpar -listen :8080
//	bpar-serve -model model.bpar -batch 32 -engines 4 -buckets 20,50,100 -warm 20,50,100
//	bpar-serve -synthetic -hidden 64 -layers 2 -listen :8080   # no checkpoint needed
//	bpar-serve -synthetic -profile-out profile.json && bpar-prof profile.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bpar/internal/core"
	"bpar/internal/obs"
	"bpar/internal/prof"
	"bpar/internal/serve"
	"bpar/internal/tensor"
)

type options struct {
	modelPath string
	synthetic bool
	cell      string
	input     int
	hidden    int
	layers    int
	classes   int
	batch     int
	mbs       int
	engines   int
	engWorker int
	windowMS  float64
	queueCap  int
	buckets   string
	maxSeq    int
	dtype     string
	warm      string
	listen    string
	drainSec  int
	profOut   string
	logLevel  string
}

func main() {
	var o options
	flag.StringVar(&o.modelPath, "model", "", "checkpoint written by Model.Save (required unless -synthetic)")
	flag.BoolVar(&o.synthetic, "synthetic", false, "serve a freshly initialized model instead of a checkpoint (demos, smoke tests)")
	flag.StringVar(&o.cell, "cell", "lstm", "synthetic model cell: lstm, gru, or rnn")
	flag.IntVar(&o.input, "input", 20, "synthetic model input feature width")
	flag.IntVar(&o.hidden, "hidden", 64, "synthetic model hidden size")
	flag.IntVar(&o.layers, "layers", 2, "synthetic model stacked layers")
	flag.IntVar(&o.classes, "classes", 11, "synthetic model classes")
	flag.IntVar(&o.batch, "batch", 0, "serving batch size (0 = the checkpoint's training batch size)")
	flag.IntVar(&o.mbs, "mbs", 1, "mini-batches per engine step (mbs:N)")
	flag.IntVar(&o.engines, "engines", 0, "engine pool size (0 = GOMAXPROCS/4, min 1)")
	flag.IntVar(&o.engWorker, "engine-workers", 2, "task-runtime workers per engine")
	flag.Float64Var(&o.windowMS, "batch-window-ms", 2, "micro-batch collection window in milliseconds")
	flag.IntVar(&o.queueCap, "queue-cap", 0, "max sequences in flight before 429 (0 = 8*batch*engines)")
	flag.StringVar(&o.buckets, "buckets", "", "comma-separated ascending sequence-length buckets; lengths pad up to their bucket (masked, numerics unchanged) and longer sequences are rejected (empty = exact lengths)")
	flag.IntVar(&o.maxSeq, "max-seq", 512, "reject sequences longer than this")
	flag.StringVar(&o.dtype, "dtype", "f64", "inference dtype: f64 (bitwise-exact responses) or f32 (float32 mirror with packed weight panels; checkpoints stay f64)")
	flag.StringVar(&o.warm, "warm", "", "comma-separated sequence lengths to pre-capture templates for at startup")
	flag.StringVar(&o.listen, "listen", ":8080", "serve the API and telemetry on this address")
	flag.IntVar(&o.drainSec, "drain-timeout", 30, "seconds to wait for graceful drain on SIGINT/SIGTERM")
	flag.StringVar(&o.profOut, "profile-out", "", "accumulate per-node timing over the replayed task graphs and write the profile dump to this file after drain (see bpar-prof); stage histograms on /metrics are always on")
	flag.StringVar(&o.logLevel, "log-level", "info", "log level: debug, info, warn, or error")
	flag.Parse()

	if err := obs.InitLogging(os.Stderr, o.logLevel); err != nil {
		fmt.Fprintln(os.Stderr, "bpar-serve:", err)
		os.Exit(2)
	}
	if err := run(o); err != nil {
		obs.Logger("cmd").Error("bpar-serve failed", "err", err)
		os.Exit(1)
	}
}

func loadModel(o options) (*core.Model, error) {
	if o.modelPath != "" {
		f, err := os.Open(o.modelPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		m, err := core.LoadModel(f)
		if err != nil {
			return nil, err
		}
		return m, nil
	}
	if !o.synthetic {
		return nil, fmt.Errorf("either -model or -synthetic is required")
	}
	cellKind, err := core.ParseCellKind(o.cell)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		Cell: cellKind, Arch: core.ManyToOne, Merge: core.MergeSum,
		InputSize: o.input, HiddenSize: o.hidden, Layers: o.layers,
		SeqLen: 16, Batch: 8, Classes: o.classes, MiniBatches: 1, Seed: 1,
	}
	return core.NewModel(cfg)
}

func parseLens(flagName, s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad %s entry %q", flagName, part)
		}
		out = append(out, n)
	}
	return out, nil
}

func run(o options) error {
	log := obs.Logger("cmd")
	// The profile's overhead ratio and bpar-prof's calibration need the
	// workers the engines really run, so there is no fallback count.
	if o.engWorker < 1 {
		return fmt.Errorf("-engine-workers must be >= 1, got %d", o.engWorker)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	model, err := loadModel(o)
	if err != nil {
		return err
	}
	// The serving batch size is independent of the training batch size the
	// checkpoint recorded: workspaces are sized from Cfg.Batch at engine
	// build time and weights do not depend on it.
	if o.batch > 0 {
		model.Cfg.Batch = o.batch
	}
	model.Cfg.MiniBatches = o.mbs
	if err := model.Cfg.Validate(); err != nil {
		return err
	}
	warmLens, err := parseLens("-warm", o.warm)
	if err != nil {
		return err
	}
	bucketLens, err := parseLens("-buckets", o.buckets)
	if err != nil {
		return err
	}
	dtype, err := tensor.ParseDType(o.dtype)
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	obs.RegisterProcessMetrics(reg)
	tensor.RegisterMetrics(reg)

	var profiler *prof.GraphProfiler
	if o.profOut != "" {
		profiler = prof.NewGraphProfiler()
		prof.RegisterMetrics(reg, profiler, o.engWorker)
	}

	srvCfg := serve.Config{
		Model:            model,
		Engines:          o.engines,
		WorkersPerEngine: o.engWorker,
		BatchWindow:      time.Duration(o.windowMS * float64(time.Millisecond)),
		QueueCap:         o.queueCap,
		Buckets:          bucketLens,
		MaxSeqLen:        o.maxSeq,
		InferDType:       dtype,
		Registry:         reg,
	}
	if profiler != nil {
		srvCfg.Profile = profiler
	}
	svc, err := serve.New(srvCfg)
	if err != nil {
		return err
	}
	if len(warmLens) > 0 {
		warmStart := time.Now()
		if err := svc.Warm(warmLens); err != nil {
			return err
		}
		log.Info("templates warmed", "seq_lens", warmLens,
			"duration", time.Since(warmStart).Round(time.Millisecond))
	}

	mux := obs.NewMux(reg)
	svc.Routes(mux)
	srv, addr, err := obs.ServeMux(o.listen, mux)
	if err != nil {
		return err
	}
	log.Info("serving", "addr", addr, "model", model.Cfg.String(),
		"params", model.ParamCount(), "gomaxprocs", runtime.GOMAXPROCS(0),
		"endpoints", "/v1/probs /v1/classify /metrics /healthz /debug/pprof/")

	<-ctx.Done()
	stop() // a second signal now kills the process instead of queueing
	log.Info("signal received, draining")

	drainCtx, cancel := context.WithTimeout(context.Background(), time.Duration(o.drainSec)*time.Second)
	defer cancel()
	// Order matters: stop the listener first so no new work is admitted
	// while the pipeline flushes, then drain every admitted sequence.
	obs.ShutdownServer(srv, time.Duration(o.drainSec)*time.Second)
	if err := svc.Drain(drainCtx); err != nil {
		return err
	}
	if profiler != nil {
		// Safe only now: Drain quiesced every engine runtime.
		pd := profiler.Snapshot(o.engWorker)
		if err := pd.WriteFile(o.profOut); err != nil {
			return err
		}
		log.Info("profile dump written", "file", o.profOut,
			"templates", profiler.Templates(), "replays", profiler.Replays(),
			"reader", "bpar-prof "+o.profOut)
	}
	log.Info("exit clean")
	return nil
}
