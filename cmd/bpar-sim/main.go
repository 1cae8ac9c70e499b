// Command bpar-sim records the paper's B-Par task graph of a model
// configuration (one task per cell, Algorithms 1–3) and replays it on the
// simulated dual-socket 48-core platform, sweeping core counts and comparing
// scheduling policies. It is the tool behind the scalability and locality
// analyses.
//
// Usage:
//
//	bpar-sim -layers 8 -hidden 256 -batch 128 -mbs 8
//	bpar-sim -layers 8 -hidden 512 -mbs 6 -policy both
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"bpar/internal/baseline"
	"bpar/internal/core"
	"bpar/internal/costmodel"
	"bpar/internal/obs"
	"bpar/internal/sim"
)

func main() {
	cellName := flag.String("cell", "lstm", "cell type: lstm, gru, or rnn")
	arch := flag.String("arch", "m2o", "architecture: m2o or m2m")
	layers := flag.Int("layers", 8, "stacked layers")
	hidden := flag.Int("hidden", 256, "hidden size")
	input := flag.Int("input", 256, "input size")
	seq := flag.Int("seq", 100, "sequence length")
	batch := flag.Int("batch", 128, "batch size")
	mbs := flag.Int("mbs", 8, "data-parallel mini-batches")
	coreList := flag.String("cores", "1,2,4,8,16,24,32,48", "core counts to sweep")
	policy := flag.String("policy", "locality", "scheduling: fifo, locality, or both")
	barrier := flag.Bool("barrier", false, "also simulate with per-layer barriers")
	infer := flag.Bool("infer", false, "simulate inference (forward only) instead of training")
	dot := flag.String("dot", "", "also write the task graph in Graphviz DOT format to this file")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, or error")
	flag.Parse()

	if err := obs.InitLogging(os.Stderr, *logLevel); err != nil {
		fmt.Fprintln(os.Stderr, "bpar-sim:", err)
		os.Exit(2)
	}
	if err := run(*cellName, *arch, *layers, *hidden, *input, *seq, *batch, *mbs, *coreList, *policy, *barrier, *infer, *dot); err != nil {
		obs.Logger("cmd").Error("bpar-sim failed", "err", err)
		os.Exit(1)
	}
}

func run(cellName, arch string, layers, hidden, input, seq, batch, mbs int, coreList, policy string, barrier, infer bool, dotFile string) error {
	cfg := core.Config{
		Merge: core.MergeSum, InputSize: input, HiddenSize: hidden,
		Layers: layers, SeqLen: seq, Batch: batch, Classes: 11,
		MiniBatches: mbs, Seed: 1,
	}
	switch cellName {
	case "lstm":
		cfg.Cell = core.LSTM
	case "gru":
		cfg.Cell = core.GRU
	case "rnn":
		cfg.Cell = core.RNN
	default:
		return fmt.Errorf("unknown cell %q", cellName)
	}
	switch arch {
	case "m2o":
		cfg.Arch = core.ManyToOne
	case "m2m":
		cfg.Arch = core.ManyToMany
	default:
		return fmt.Errorf("unknown arch %q", arch)
	}

	var cores []int
	for _, tok := range strings.Split(coreList, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || c < 1 {
			return fmt.Errorf("bad core count %q", tok)
		}
		cores = append(cores, c)
	}
	var policies []sim.Policy
	switch policy {
	case "fifo":
		policies = []sim.Policy{sim.FIFO}
	case "locality":
		policies = []sim.Policy{sim.Locality}
	case "both":
		policies = []sim.Policy{sim.FIFO, sim.Locality}
	default:
		return fmt.Errorf("unknown policy %q", policy)
	}

	if infer && barrier {
		return fmt.Errorf("-infer and -barrier cannot be combined: the per-layer barrier graph is a training graph")
	}
	record := baseline.TrainGraph
	if infer {
		record = baseline.InferGraph
	}
	g, err := record(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("config: %v\n", cfg)
	fmt.Printf("graph: %d tasks, %.1f GFLOP total, %.1f GFLOP critical path, max width %d\n",
		len(g.Nodes), g.TotalFlops()/1e9, g.CriticalPathFlops()/1e9, g.MaxWidth())

	if dotFile != "" {
		f, err := os.Create(dotFile)
		if err != nil {
			return err
		}
		if err := g.WriteDOT(f, cfg.String()); err != nil {
			_ = f.Close() // the write error is the one worth reporting
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		obs.Logger("cmd").Info("DOT graph written", "file", dotFile,
			"render", fmt.Sprintf("dot -Tsvg %s -o graph.svg", dotFile))
	}

	machine := costmodel.XeonPlatinum8160x2()
	fmt.Printf("platform: %s\n\n", machine.Name)
	fmt.Printf("%6s %-15s %12s %8s %8s %8s %10s\n", "cores", "policy", "makespan(s)", "par", "util%", "hit", "peakWS(MB)")
	for _, c := range cores {
		for _, pol := range policies {
			r, err := sim.Run(g, sim.Options{Machine: machine, Cores: c, Policy: pol})
			if err != nil {
				return err
			}
			fmt.Printf("%6d %-15s %12.4f %8.1f %8.1f %8.2f %10.1f\n",
				c, pol.String(), r.MakespanSec, r.AvgParallelism, r.Utilization*100,
				r.AvgHitRatio, float64(r.PeakRunningWS)/(1<<20))
		}
	}

	if barrier {
		gb, err := baseline.BarrierTrainGraph(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("\nwith per-layer barriers (%d tasks incl. barrier nodes):\n", len(gb.Nodes))
		for _, c := range cores {
			r, err := sim.Run(gb, sim.Options{Machine: machine, Cores: c, Policy: sim.Locality})
			if err != nil {
				return err
			}
			fmt.Printf("%6d %-15s %12.4f %8.1f\n", c, "barrier", r.MakespanSec, r.AvgParallelism)
		}
	}
	return nil
}
