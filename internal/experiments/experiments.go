// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV). Each experiment records the paper's B-Par task
// graphs — the fused one-task-per-cell shape of Algorithms 1–3, built from
// the configuration by internal/baseline — replays them on the simulated
// 48-core platform (internal/sim), evaluates the framework baselines
// (internal/baseline), and prints rows/series in the same shape the paper
// reports. Every result is a pure function of the configuration and the
// cost model: no experiment executes a kernel or reads a clock, so the
// output is the same on every run and every host.
//
// Absolute times come from a calibrated cost model, so they land near —
// not exactly on — the paper's numbers; the experiment tests assert the
// paper's *shape*: who wins, by roughly what factor, and where the
// crossovers fall. EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"io"

	"bpar/internal/baseline"
	"bpar/internal/core"
	"bpar/internal/costmodel"
	"bpar/internal/sim"
	"bpar/internal/taskrt"
)

// PaperCoreCounts is the core-count sweep used throughout the evaluation.
var PaperCoreCounts = []int{1, 2, 4, 8, 16, 24, 32, 48}

// Opts scales experiments. Zero values select the paper's parameters;
// tests use smaller sequence lengths to keep run times reasonable.
type Opts struct {
	// SeqLen overrides the sequence length of every configuration.
	SeqLen int
	// CoreCounts overrides the core sweep.
	CoreCounts []int
}

func (o Opts) seq(def int) int {
	if o.SeqLen > 0 {
		return o.SeqLen
	}
	return def
}

func (o Opts) cores() []int {
	if len(o.CoreCounts) > 0 {
		return o.CoreCounts
	}
	return PaperCoreCounts
}

// simBParBest simulates cfg across the core sweep and returns the best time
// and the core count achieving it (the paper reports best-over-cores).
func simBParBest(cfg core.Config, machine costmodel.Machine, coreCounts []int) (float64, int, error) {
	g, err := baseline.TrainGraph(cfg)
	if err != nil {
		return 0, 0, err
	}
	return simGraphBest(g, machine, coreCounts)
}

// simGraphBest is simBParBest over an already recorded training graph.
func simGraphBest(g *taskrt.Graph, machine costmodel.Machine, coreCounts []int) (float64, int, error) {
	best, bestC := -1.0, 0
	for _, c := range coreCounts {
		res, err := sim.Run(g, sim.Options{Machine: machine, Cores: c, Policy: sim.Locality})
		if err != nil {
			return 0, 0, err
		}
		if best < 0 || res.MakespanSec < best {
			best, bestC = res.MakespanSec, c
		}
	}
	return best, bestC, nil
}

// trainBest records cfg's training graph once and returns the best-over-cores
// times of both task-based models on it: B-Par simulated, B-Seq modelled from
// the graph's flop total.
func trainBest(cfg core.Config, machine costmodel.Machine, coreCounts []int) (bpar, bseq float64, err error) {
	g, err := baseline.TrainGraph(cfg)
	if err != nil {
		return 0, 0, err
	}
	if bpar, _, err = simGraphBest(g, machine, coreCounts); err != nil {
		return 0, 0, err
	}
	flops := g.TotalFlops()
	bseq = -1
	for _, c := range coreCounts {
		if t := bseqTrainSec(flops, cfg.MiniBatches, machine, c); bseq < 0 || t < bseq {
			bseq = t
		}
	}
	return bpar, bseq, nil
}

// bseqTrainSec models the data-parallel-only baseline: n mini-batches as
// coarse sequential tasks scheduled on min(cores, n) cores, totalFlops being
// one training batch's cell flops (forward + backward; the training graph's
// TotalFlops). Each coarse task processes its share of the batch at
// single-core speed with a modest memory multiplier (sequential execution
// reuses caches poorly across a whole network sweep). It matches the paper's
// observed B-Seq behaviour: scaling flat once cores exceed the mini-batch
// count.
func bseqTrainSec(totalFlops float64, n int, machine costmodel.Machine, cores int) float64 {
	const seqMemMult = 2.4
	perMB := totalFlops / float64(n) / (machine.CoreGFlops * 1e9) * seqMemMult
	width := cores
	if width > n {
		width = n
	}
	if width < 1 {
		width = 1
	}
	waves := (n + width - 1) / width
	return float64(waves) * perMB
}

// fprintln writes a line, ignoring errors (report writers are in-memory or
// stdout).
func fprintf(w io.Writer, format string, args ...interface{}) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
