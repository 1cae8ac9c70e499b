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
	"io"
	"os"
	"strconv"
	"strings"

	"bpar/internal/baseline"
	"bpar/internal/core"
	"bpar/internal/costmodel"
	"bpar/internal/obs"
	"bpar/internal/sim"
)

// options holds bpar-sim's flags.
type options struct {
	cell, arch                        string
	layers, hidden, input, seq, batch int
	mbs                               int
	cores, policy                     string
	barrier, infer                    bool
	dot, logLevel                     string
}

// bindFlags registers bpar-sim's flags on fs, writing into o.
func bindFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.cell, "cell", "lstm", "cell type: lstm, gru, or rnn")
	fs.StringVar(&o.arch, "arch", "m2o", "architecture: m2o or m2m")
	fs.IntVar(&o.layers, "layers", 8, "stacked layers")
	fs.IntVar(&o.hidden, "hidden", 256, "hidden size")
	fs.IntVar(&o.input, "input", 256, "input size")
	fs.IntVar(&o.seq, "seq", 100, "sequence length")
	fs.IntVar(&o.batch, "batch", 128, "batch size")
	fs.IntVar(&o.mbs, "mbs", 8, "data-parallel mini-batches")
	fs.StringVar(&o.cores, "cores", "1,2,4,8,16,24,32,48", "core counts to sweep")
	fs.StringVar(&o.policy, "policy", "locality", "scheduling: fifo, locality, or both")
	fs.BoolVar(&o.barrier, "barrier", false, "also simulate with per-layer barriers")
	fs.BoolVar(&o.infer, "infer", false, "simulate inference (forward only) instead of training")
	fs.StringVar(&o.dot, "dot", "", "also write the task graph in Graphviz DOT format to this file")
	fs.StringVar(&o.logLevel, "log-level", "info", "log level: debug, info, warn, or error")
}

func main() {
	var o options
	bindFlags(flag.CommandLine, &o)
	flag.Parse()

	if err := obs.InitLogging(os.Stderr, o.logLevel); err != nil {
		fmt.Fprintln(os.Stderr, "bpar-sim:", err)
		os.Exit(2)
	}
	if err := run(os.Stdout, o); err != nil {
		obs.Logger("cmd").Error("bpar-sim failed", "err", err)
		os.Exit(1)
	}
}

// run simulates the configuration o describes and writes the report to w.
func run(w io.Writer, o options) error {
	cfg := core.Config{
		Merge: core.MergeSum, InputSize: o.input, HiddenSize: o.hidden,
		Layers: o.layers, SeqLen: o.seq, Batch: o.batch, Classes: 11,
		MiniBatches: o.mbs, Seed: 1,
	}
	var err error
	if cfg.Cell, err = core.ParseCellKind(o.cell); err != nil {
		return err
	}
	switch o.arch {
	case "m2o":
		cfg.Arch = core.ManyToOne
	case "m2m":
		cfg.Arch = core.ManyToMany
	default:
		return fmt.Errorf("unknown arch %q", o.arch)
	}

	var cores []int
	for _, tok := range strings.Split(o.cores, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || c < 1 {
			return fmt.Errorf("bad core count %q", tok)
		}
		cores = append(cores, c)
	}
	var policies []sim.Policy
	switch o.policy {
	case "fifo":
		policies = []sim.Policy{sim.FIFO}
	case "locality":
		policies = []sim.Policy{sim.Locality}
	case "both":
		policies = []sim.Policy{sim.FIFO, sim.Locality}
	default:
		return fmt.Errorf("unknown policy %q", o.policy)
	}

	if o.infer && o.barrier {
		return fmt.Errorf("-infer and -barrier cannot be combined: the per-layer barrier graph is a training graph")
	}
	record := baseline.TrainGraph
	if o.infer {
		record = baseline.InferGraph
	}
	g, err := record(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "config: %v\n", cfg)
	fmt.Fprintf(w, "graph: %d tasks, %.1f GFLOP total, %.1f GFLOP critical path, max width %d\n",
		len(g.Nodes), g.TotalFlops()/1e9, g.CriticalPathFlops()/1e9, g.MaxWidth())

	if o.dot != "" {
		f, err := os.Create(o.dot)
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
		obs.Logger("cmd").Info("DOT graph written", "file", o.dot,
			"render", fmt.Sprintf("dot -Tsvg %s -o graph.svg", o.dot))
	}

	machine := costmodel.XeonPlatinum8160x2()
	fmt.Fprintf(w, "platform: %s\n\n", machine.Name)
	fmt.Fprintf(w, "%6s %-15s %12s %8s %8s %8s %10s\n", "cores", "policy", "makespan(s)", "par", "util%", "hit", "peakWS(MB)")
	for _, c := range cores {
		for _, pol := range policies {
			r, err := sim.Run(g, sim.Options{Machine: machine, Cores: c, Policy: pol})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%6d %-15s %12.4f %8.1f %8.1f %8.2f %10.1f\n",
				c, pol.String(), r.MakespanSec, r.AvgParallelism, r.Utilization*100,
				r.AvgHitRatio, float64(r.PeakRunningWS)/(1<<20))
		}
	}

	if o.barrier {
		gb, err := baseline.BarrierTrainGraph(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwith per-layer barriers (%d tasks incl. barrier nodes):\n", len(gb.Nodes))
		for _, c := range cores {
			r, err := sim.Run(gb, sim.Options{Machine: machine, Cores: c, Policy: sim.Locality})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%6d %-15s %12.4f %8.1f\n", c, "barrier", r.MakespanSec, r.AvgParallelism)
		}
	}
	return nil
}
