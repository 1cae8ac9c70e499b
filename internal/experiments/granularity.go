package experiments

import (
	"io"

	"bpar/internal/baseline"
	"bpar/internal/core"
	"bpar/internal/costmodel"
	"bpar/internal/sim"
)

// GranularityResult reproduces the task-granularity study of Section IV-B:
// the paper's configuration (seq 100, batch 128, input 64, hidden 512)
// evaluated through the cost model. Runtime overhead on real cores is
// measured by bench/ (taskrt.overhead_ratio), not here.
type GranularityResult struct {
	PaperTasksPerStep int
	PaperStepsFor368k int // batches needed to reach the paper's 368,240 tasks
	// Cost-model task durations (µs) for the paper configuration.
	PaperMinUS, PaperAvgUS, PaperMaxUS float64
	// AvgLSTMTaskWorkingSetMB is the mean cell-task working set at paper
	// scale (the paper reports 4.71 MB).
	AvgLSTMTaskWorkingSetMB float64
}

// RunGranularity executes the granularity study.
func RunGranularity(o Opts) (*GranularityResult, error) {
	res := &GranularityResult{}
	paperCfg := core.Config{
		Cell: core.LSTM, Arch: core.ManyToOne, Merge: core.MergeSum,
		InputSize: 64, HiddenSize: 512, Layers: 6, SeqLen: o.seq(100),
		Batch: 128, Classes: 11, MiniBatches: 1, Seed: 1,
	}
	g, err := baseline.TrainGraph(paperCfg)
	if err != nil {
		return nil, err
	}
	res.PaperTasksPerStep = len(g.Nodes)
	res.PaperStepsFor368k = (368240 + len(g.Nodes) - 1) / len(g.Nodes)

	machine := costmodel.XeonPlatinum8160x2()
	minUS, maxUS, sumUS := -1.0, 0.0, 0.0
	var lstmWS float64
	var lstmN int
	for _, nd := range g.Nodes {
		// Cold-start duration estimate (hit ratio 0): the upper envelope.
		dur := machine.TaskSeconds(nd.Flops, float64(nd.WorkingSet), 1) * 1e6
		if minUS < 0 || dur < minUS {
			minUS = dur
		}
		if dur > maxUS {
			maxUS = dur
		}
		sumUS += dur
		if nd.Kind == "lstm" || nd.Kind == "lstm-bwd" {
			lstmWS += float64(nd.WorkingSet)
			lstmN++
		}
	}
	res.PaperMinUS = minUS
	res.PaperAvgUS = sumUS / float64(len(g.Nodes))
	res.PaperMaxUS = maxUS
	if lstmN > 0 {
		res.AvgLSTMTaskWorkingSetMB = lstmWS / float64(lstmN) / (1 << 20)
	}
	return res, nil
}

// PrintGranularity renders the study.
func PrintGranularity(w io.Writer, r *GranularityResult) {
	fprintf(w, "Task-granularity study (Section IV-B)\n")
	fprintf(w, "paper-scale (seq 100, batch 128, in 64, hidden 512):\n")
	fprintf(w, "  tasks per training step: %d (368,240 total tasks = %d steps)\n",
		r.PaperTasksPerStep, r.PaperStepsFor368k)
	fprintf(w, "  modelled task duration: min %.1fus avg %.1fus max %.1fus (paper: 272.8 / 13,052 / 315,178)\n",
		r.PaperMinUS, r.PaperAvgUS, r.PaperMaxUS)
	fprintf(w, "  avg LSTM-task working set: %.2f MB (paper: 4.71 MB)\n", r.AvgLSTMTaskWorkingSetMB)
}

// MemoryResult reproduces the memory-consumption study of Section IV-B: the
// working set of concurrently active tasks with and without per-layer
// synchronization, for an 8-layer BLSTM at mbs:6.
type MemoryResult struct {
	// Concurrent working set (bytes): time-averaged sum of running tasks'
	// working sets. Paper: 75.36 MB barrier-free vs 28.26 MB with
	// per-layer synchronization.
	FreeAvgWS, BarrierAvgWS   float64
	FreePeakWS, BarrierPeakWS int64
	// Average concurrently running tasks. Paper: 16 vs 6.
	FreeAvgTasks, BarrierAvgTasks float64
	// Makespans, showing the performance the extra memory buys.
	FreeSec, BarrierSec float64
}

// RunMemory executes the memory study.
func RunMemory(o Opts) (*MemoryResult, error) {
	machine := costmodel.XeonPlatinum8160x2()
	cfg := blstmCfg(8, 256, 128, o.seq(100), 6)
	free, err := baseline.TrainGraph(cfg)
	if err != nil {
		return nil, err
	}
	barred, err := baseline.BarrierTrainGraph(cfg)
	if err != nil {
		return nil, err
	}
	rFree, err := sim.Run(free, sim.Options{Machine: machine, Cores: 48, Policy: sim.Locality})
	if err != nil {
		return nil, err
	}
	rBar, err := sim.Run(barred, sim.Options{Machine: machine, Cores: 48, Policy: sim.Locality})
	if err != nil {
		return nil, err
	}
	return &MemoryResult{
		FreeAvgWS:       rFree.AvgRunningWS,
		BarrierAvgWS:    rBar.AvgRunningWS,
		FreePeakWS:      rFree.PeakRunningWS,
		BarrierPeakWS:   rBar.PeakRunningWS,
		FreeAvgTasks:    rFree.AvgRunningTasks,
		BarrierAvgTasks: rBar.AvgRunningTasks,
		FreeSec:         rFree.MakespanSec,
		BarrierSec:      rBar.MakespanSec,
	}, nil
}

// PrintMemory renders the study.
func PrintMemory(w io.Writer, r *MemoryResult) {
	const mb = 1 << 20
	fprintf(w, "Memory study (Section IV-B) — 8-layer BLSTM, mbs:6\n")
	fprintf(w, "%22s %14s %14s\n", "", "barrier-free", "per-layer sync")
	fprintf(w, "%22s %11.2f MB %11.2f MB   (paper: 75.36 vs 28.26)\n", "avg active working set",
		r.FreeAvgWS/mb, r.BarrierAvgWS/mb)
	fprintf(w, "%22s %11.2f MB %11.2f MB\n", "peak active working set",
		float64(r.FreePeakWS)/mb, float64(r.BarrierPeakWS)/mb)
	fprintf(w, "%22s %14.1f %14.1f   (paper: 16 vs 6)\n", "avg parallel tasks",
		r.FreeAvgTasks, r.BarrierAvgTasks)
	fprintf(w, "%22s %12.3f s %12.3f s\n", "batch time", r.FreeSec, r.BarrierSec)
}
