// Command bpar-bench regenerates the paper's evaluation: every table and
// figure of Section IV, at full paper parameters by default.
//
// Usage:
//
//	bpar-bench -exp all
//	bpar-bench -exp table3            # BLSTM training times (Table III)
//	bpar-bench -exp table4            # BGRU training times (Table IV)
//	bpar-bench -exp fig3 ... fig8     # the figures
//	bpar-bench -exp granularity       # the task-granularity study
//	bpar-bench -exp memory            # the memory-consumption study
//	bpar-bench -exp ablation          # barrier-removal ablation
//	bpar-bench -exp replay            # fresh emission vs graph capture & replay
//	bpar-bench -exp all -seq 40       # reduced sequence length (faster)
//
// Serving load is measured by the benchmark harness in bench/, not here.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"bpar/internal/core"
	"bpar/internal/experiments"
	"bpar/internal/obs"
	"bpar/internal/prof"
	"bpar/internal/tensor"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, table3, table4, fig3..fig8, granularity, memory, ablation, replay, policy, efficiency, sched, determinism, dtype, multihead")
	seq := flag.Int("seq", 0, "override sequence length (0 = paper value, 100)")
	noReplay := flag.Bool("no-replay", false, "force fresh task-graph emission every step in native-engine experiments instead of graph capture & replay")
	listen := flag.String("listen", "", "serve /metrics, /healthz, and /debug/pprof on this address (e.g. :8080) during the run")
	profGraph := flag.Bool("profile-graph", false, "accumulate per-node timing over the replayed task graphs (see bpar-prof)")
	profOut := flag.String("profile-out", "bpar-profile.json", "profile dump path written at exit when -profile-graph is set")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	jsonOut := flag.String("json", "", "write machine-readable results of every experiment run to this JSON file")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, or error")
	flag.Parse()

	if err := obs.InitLogging(os.Stderr, *logLevel); err != nil {
		fmt.Fprintln(os.Stderr, "bpar-bench:", err)
		os.Exit(2)
	}
	log := obs.Logger("cmd")

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Error("cpu profile", "err", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Error("start cpu profile", "err", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
		log.Info("cpu profiling enabled", "file", *cpuProfile)
	}

	// Interrupts stop between experiments and still tear telemetry down
	// gracefully: a bare srv.Close would drop a scrape caught in flight.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *listen != "" {
		reg := obs.NewRegistry()
		obs.RegisterProcessMetrics(reg)
		tensor.RegisterMetrics(reg)
		srv, addr, err := obs.Serve(*listen, reg)
		if err != nil {
			log.Error("telemetry listen", "err", err)
			os.Exit(1)
		}
		defer obs.ShutdownServer(srv, 2*time.Second)
		log.Info("telemetry listening", "addr", addr,
			"endpoints", "/metrics /healthz /debug/pprof/")
	}

	o := experiments.Opts{SeqLen: *seq, NoReplay: *noReplay}
	var profiler *prof.GraphProfiler
	if *profGraph {
		profiler = prof.NewGraphProfiler()
		o.Profile = profiler
	}
	names := strings.Split(*exp, ",")
	if *exp == "all" {
		names = []string{"table3", "table4", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "granularity", "memory", "ablation", "replay", "policy", "efficiency", "platforms", "crossover", "sched"}
	}
	results := make(map[string]any)
	durations := make(map[string]float64)
	for _, name := range names {
		if ctx.Err() != nil {
			log.Warn("interrupted, skipping remaining experiments", "next", name)
			break
		}
		name = strings.TrimSpace(name)
		start := time.Now()
		res, err := run(name, o)
		if err != nil {
			log.Error("experiment failed", "exp", name, "err", err)
			os.Exit(1)
		}
		results[name] = res
		durations[name] = time.Since(start).Seconds()
		log.Info("experiment completed", "exp", name,
			"duration", time.Since(start).Round(time.Millisecond))
	}

	if *jsonOut != "" {
		if err := writeResults(*jsonOut, results, durations, o); err != nil {
			log.Error("json results", "err", err)
			os.Exit(1)
		}
		log.Info("json results written", "file", *jsonOut, "experiments", len(results))
	}

	if profiler != nil {
		// Every experiment runtime has drained by now; the snapshot covers
		// whatever native-engine experiments replayed templates.
		pd := profiler.Snapshot(runtime.GOMAXPROCS(0))
		if err := pd.WriteFile(*profOut); err != nil {
			log.Error("profile dump", "err", err)
			os.Exit(1)
		}
		log.Info("profile dump written", "file", *profOut,
			"templates", profiler.Templates(), "replays", profiler.Replays(),
			"reader", "bpar-prof "+*profOut)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Error("heap profile", "err", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // materialize up-to-date heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Error("write heap profile", "err", err)
			os.Exit(1)
		}
		log.Info("heap profile written", "file", *memProfile)
	}
}

// benchReport is the envelope of the -json results file: enough provenance
// to compare artifacts across runs and machines, plus the raw result struct
// of every experiment keyed by name.
type benchReport struct {
	Timestamp   string             `json:"timestamp"`
	GoMaxProcs  int                `json:"gomaxprocs"`
	GoVersion   string             `json:"go_version"`
	SeqOverride int                `json:"seq_override,omitempty"`
	NoReplay    bool               `json:"no_replay,omitempty"`
	DurationSec map[string]float64 `json:"duration_sec"`
	Experiments map[string]any     `json:"experiments"`
}

// writeResults dumps every experiment's result struct as indented JSON.
func writeResults(path string, results map[string]any, durations map[string]float64, o experiments.Opts) error {
	rep := benchReport{
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		SeqOverride: o.SeqLen,
		NoReplay:    o.NoReplay,
		DurationSec: durations,
		Experiments: results,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func run(name string, o experiments.Opts) (any, error) {
	w := os.Stdout
	switch name {
	case "table3":
		rows, err := experiments.RunTable(core.LSTM, o)
		if err != nil {
			return nil, err
		}
		experiments.PrintTable(w, "Table III — BLSTM training times and B-Par speed-ups", rows)
		return rows, nil
	case "table4":
		rows, err := experiments.RunTable(core.GRU, o)
		if err != nil {
			return nil, err
		}
		experiments.PrintTable(w, "Table IV — BGRU training times and B-Par speed-ups", rows)
		return rows, nil
	case "fig3":
		r, err := experiments.RunFig3(o)
		if err != nil {
			return nil, err
		}
		experiments.PrintFig3(w, r)
		return r, nil
	case "fig4":
		r, err := experiments.RunFig4(o)
		if err != nil {
			return nil, err
		}
		experiments.PrintFig4(w, r)
		return r, nil
	case "fig5":
		r, err := experiments.RunFig5(o)
		if err != nil {
			return nil, err
		}
		experiments.PrintFig5(w, r)
		return r, nil
	case "fig6":
		r, err := experiments.RunFig6(o)
		if err != nil {
			return nil, err
		}
		experiments.PrintFig6(w, r)
		return r, nil
	case "fig7":
		r, err := experiments.RunFig7(o)
		if err != nil {
			return nil, err
		}
		experiments.PrintFig7(w, r)
		return r, nil
	case "fig8":
		r, err := experiments.RunFig8(o)
		if err != nil {
			return nil, err
		}
		experiments.PrintFig8(w, r)
		return r, nil
	case "granularity":
		r, err := experiments.RunGranularity(o)
		if err != nil {
			return nil, err
		}
		experiments.PrintGranularity(w, r)
		return r, nil
	case "memory":
		r, err := experiments.RunMemory(o)
		if err != nil {
			return nil, err
		}
		experiments.PrintMemory(w, r)
		return r, nil
	case "policy":
		r, err := experiments.RunAblationPolicy(o)
		if err != nil {
			return nil, err
		}
		experiments.PrintAblationPolicy(w, r)
		return r, nil
	case "efficiency":
		r, err := experiments.RunEfficiency(o)
		if err != nil {
			return nil, err
		}
		experiments.PrintEfficiency(w, r)
		return r, nil
	case "crossover":
		r, err := experiments.RunCrossover(o)
		if err != nil {
			return nil, err
		}
		experiments.PrintCrossover(w, r)
		return r, nil
	case "platforms":
		r, err := experiments.RunPlatforms(o)
		if err != nil {
			return nil, err
		}
		experiments.PrintPlatforms(w, r)
		return r, nil
	case "sched":
		r, err := experiments.RunScheduler(o)
		if err != nil {
			return nil, err
		}
		experiments.PrintScheduler(w, r)
		return r, nil
	case "dtype":
		r, err := experiments.RunDType(o)
		if err != nil {
			return nil, err
		}
		experiments.PrintDType(w, r)
		return r, nil
	case "multihead":
		r, err := experiments.RunMultiHead(o)
		if err != nil {
			return nil, err
		}
		experiments.PrintMultiHead(w, r)
		return r, nil
	case "replay":
		r, err := experiments.RunReplay(o)
		if err != nil {
			return nil, err
		}
		experiments.PrintReplay(w, r)
		return r, nil
	case "determinism":
		r, err := experiments.RunDeterminism(o)
		if err != nil {
			return nil, err
		}
		experiments.PrintDeterminism(w, r)
		return r, nil
	case "granularity-ablation":
		r, err := experiments.RunAblationGranularity(o)
		if err != nil {
			return nil, err
		}
		experiments.PrintAblationGranularity(w, r)
		return r, nil
	case "ablation":
		r, err := experiments.RunAblationBarrier(o)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "Barrier-removal ablation (8-layer BLSTM, mbs:8, 48 cores)\n")
		fmt.Fprintf(w, "  barrier-free:   %.3fs (avg parallelism %.1f)\n", r.BarrierFreeSec, r.AvgParallelismFree)
		fmt.Fprintf(w, "  per-layer sync: %.3fs (avg parallelism %.1f)\n", r.BarrierSec, r.AvgParallelismBarrier)
		fmt.Fprintf(w, "  speed-up from removing barriers: %.2fx\n", r.Speedup)
		return r, nil
	default:
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
}
