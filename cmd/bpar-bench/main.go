// Command bpar-bench regenerates the paper's evaluation: every table and
// figure of Section IV, at full paper parameters by default, plus the
// Section IV-B granularity and memory studies. Every experiment runs on the
// simulator and the cost model, so stdout is the same on every run and
// every host.
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
//	bpar-bench -exp all -seq 40       # reduced sequence length (faster)
//
// Native-engine speed (training steps/s, serving latency, per-layer
// kernel and runtime costs) is measured by the benchmark harness in bench/,
// not here.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
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
)

func main() {
	exp := flag.String("exp", "all", expUsage())
	seq := flag.Int("seq", 0, "override sequence length (0 = paper value, 100)")
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

	// Interrupts stop between experiments; -json still gets the results of
	// the experiments that finished.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o := experiments.Opts{SeqLen: *seq}
	names := strings.Split(*exp, ",")
	if *exp == "all" {
		names = experimentNames()
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
		DurationSec: durations,
		Experiments: results,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// experiment is one -exp name: it runs the study and prints its report to w,
// returning the result struct for -json.
type experiment struct {
	name string
	run  func(w io.Writer, o experiments.Opts) (any, error)
}

// study adapts an experiment's Run/Print pair to experiment.run.
func study[R any](runFn func(experiments.Opts) (R, error), printFn func(io.Writer, R)) func(io.Writer, experiments.Opts) (any, error) {
	return func(w io.Writer, o experiments.Opts) (any, error) {
		r, err := runFn(o)
		if err != nil {
			return nil, err
		}
		printFn(w, r)
		return r, nil
	}
}

// table is the study of Table III (LSTM) or Table IV (GRU).
func table(cell core.CellKind, title string) func(io.Writer, experiments.Opts) (any, error) {
	return study(
		func(o experiments.Opts) ([]experiments.TableRow, error) { return experiments.RunTable(cell, o) },
		func(w io.Writer, rows []experiments.TableRow) { experiments.PrintTable(w, title, rows) })
}

// experimentList is the one list of experiments: -exp all, the -exp help
// text and run's dispatch all come from it.
var experimentList = []experiment{
	{"table3", table(core.LSTM, "Table III — BLSTM training times and B-Par speed-ups")},
	{"table4", table(core.GRU, "Table IV — BGRU training times and B-Par speed-ups")},
	{"fig3", study(experiments.RunFig3, experiments.PrintFig3)},
	{"fig4", study(experiments.RunFig4, experiments.PrintFig4)},
	{"fig5", study(experiments.RunFig5, experiments.PrintFig5)},
	{"fig6", study(experiments.RunFig6, experiments.PrintFig6)},
	{"fig7", study(experiments.RunFig7, experiments.PrintFig7)},
	{"fig8", study(experiments.RunFig8, experiments.PrintFig8)},
	{"granularity", study(experiments.RunGranularity, experiments.PrintGranularity)},
	{"memory", study(experiments.RunMemory, experiments.PrintMemory)},
	{"ablation", study(experiments.RunAblationBarrier, printAblationBarrier)},
	{"policy", study(experiments.RunAblationPolicy, experiments.PrintAblationPolicy)},
	{"efficiency", study(experiments.RunEfficiency, experiments.PrintEfficiency)},
	{"platforms", study(experiments.RunPlatforms, experiments.PrintPlatforms)},
	{"crossover", study(experiments.RunCrossover, experiments.PrintCrossover)},
	{"granularity-ablation", study(experiments.RunAblationGranularity, experiments.PrintAblationGranularity)},
}

// experimentNames lists every -exp name, in the order -exp all runs them.
func experimentNames() []string {
	names := make([]string, len(experimentList))
	for i, e := range experimentList {
		names[i] = e.name
	}
	return names
}

// expUsage is the -exp help text.
func expUsage() string {
	return "comma-separated experiments, or all: " + strings.Join(experimentNames(), ", ")
}

func run(name string, o experiments.Opts) (any, error) {
	for _, e := range experimentList {
		if e.name == name {
			return e.run(os.Stdout, o)
		}
	}
	return nil, fmt.Errorf("unknown experiment %q", name)
}

func printAblationBarrier(w io.Writer, r *experiments.AblationBarrierResult) {
	fmt.Fprintf(w, "Barrier-removal ablation (8-layer BLSTM, mbs:8, 48 cores)\n")
	fmt.Fprintf(w, "  barrier-free:   %.3fs (avg parallelism %.1f)\n", r.BarrierFreeSec, r.AvgParallelismFree)
	fmt.Fprintf(w, "  per-layer sync: %.3fs (avg parallelism %.1f)\n", r.BarrierSec, r.AvgParallelismBarrier)
	fmt.Fprintf(w, "  speed-up from removing barriers: %.2fx\n", r.Speedup)
}
