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

// splitCellNodes returns a graph in which every cell task is split into
// `parts` serial sub-tasks, each carrying 1/parts of the flops and working
// set. This models a finer task granularity than B-Par's one-task-per-cell
// choice: more scheduling slots, but `parts` times the per-task runtime
// overhead and shorter kernels.
func splitCellNodes(g *taskrt.Graph, parts int) *taskrt.Graph {
	if parts <= 1 {
		return g
	}
	out := &taskrt.Graph{}
	// lastSub maps an original node ID to the ID of its final sub-node in
	// the new graph (which successors must depend on).
	lastSub := make([]int, len(g.Nodes))
	addNode := func(label, kind string, flops float64, ws int64, preds []int, data []bool) int {
		id := len(out.Nodes)
		n := &taskrt.GraphNode{
			ID: id, Label: label, Kind: kind, Flops: flops, WorkingSet: ws,
			Preds: append([]int(nil), preds...), DataPreds: append([]bool(nil), data...),
		}
		for _, p := range preds {
			out.Nodes[p].Succs = append(out.Nodes[p].Succs, id)
		}
		out.Nodes = append(out.Nodes, n)
		return id
	}
	isCell := func(kind string) bool {
		switch kind {
		case "lstm", "gru", "rnn", "lstm-bwd", "gru-bwd", "rnn-bwd":
			return true
		}
		return false
	}
	for _, nd := range g.Nodes {
		preds := make([]int, len(nd.Preds))
		for i, p := range nd.Preds {
			preds[i] = lastSub[p]
		}
		if !isCell(nd.Kind) {
			lastSub[nd.ID] = addNode(nd.Label, nd.Kind, nd.Flops, nd.WorkingSet, preds, nd.DataPreds)
			continue
		}
		prev := addNode(nd.Label+"/0", nd.Kind, nd.Flops/float64(parts), nd.WorkingSet/int64(parts), preds, nd.DataPreds)
		for s := 1; s < parts; s++ {
			// The intra-cell chain is an ordering edge, not a reuse edge:
			// each sub-task streams its own slice of the weights, so it
			// inherits no cache hotness from its sibling.
			prev = addNode(fmt.Sprintf("%s/%d", nd.Label, s), nd.Kind,
				nd.Flops/float64(parts), nd.WorkingSet/int64(parts),
				[]int{prev}, []bool{false})
		}
		lastSub[nd.ID] = prev
	}
	return out
}

// GranularityAblationRow is one task-granularity point: the same model with
// each cell update split into Parts serial sub-tasks.
type GranularityAblationRow struct {
	Parts       int
	Tasks       int
	MakespanSec float64
	// OverheadShare is total per-task overhead relative to makespan.
	OverheadShare float64
}

// RunAblationGranularity quantifies the paper's task-granularity design
// choice (one task per cell update): finer decompositions pay more runtime
// overhead and lose cache locality without exposing useful extra
// parallelism, so the cell-granular graph should win or tie.
func RunAblationGranularity(o Opts) ([]GranularityAblationRow, error) {
	machine := costmodel.XeonPlatinum8160x2()
	cfg := blstmCfg(8, 256, 128, o.seq(100), 8)
	base, err := baseline.TrainGraph(cfg)
	if err != nil {
		return nil, err
	}
	var rows []GranularityAblationRow
	for _, parts := range []int{1, 2, 4, 8} {
		g := splitCellNodes(base, parts)
		if err := g.Validate(); err != nil {
			return nil, err
		}
		r, err := sim.Run(g, sim.Options{Machine: machine, Cores: 48, Policy: sim.Locality})
		if err != nil {
			return nil, err
		}
		rows = append(rows, GranularityAblationRow{
			Parts:         parts,
			Tasks:         len(g.Nodes),
			MakespanSec:   r.MakespanSec,
			OverheadShare: float64(len(g.Nodes)) * machine.TaskOverheadSec / r.MakespanSec,
		})
	}
	return rows, nil
}

// PrintAblationGranularity renders the ablation.
func PrintAblationGranularity(w io.Writer, rows []GranularityAblationRow) {
	fprintf(w, "Task-granularity ablation — 8-layer BLSTM, each cell split into N serial sub-tasks\n")
	fprintf(w, "%6s %9s %13s %15s\n", "parts", "tasks", "makespan(s)", "overhead share")
	for _, r := range rows {
		fprintf(w, "%6d %9d %13.3f %14.1f%%\n", r.Parts, r.Tasks, r.MakespanSec, r.OverheadShare*100)
	}
}

// PolicyAblationRow compares the three scheduling policies on one core
// count.
type PolicyAblationRow struct {
	Cores                       int
	FIFOSec, LocalitySec, CPSec float64
	FIFOHit, LocalityHit        float64
}

// RunAblationPolicy contrasts breadth-first FIFO, the paper's locality-aware
// scheduler, and a critical-path-first priority scheduler on the standard
// 8-layer BLSTM graph.
func RunAblationPolicy(o Opts) ([]PolicyAblationRow, error) {
	machine := costmodel.XeonPlatinum8160x2()
	cfg := blstmCfg(8, 256, 128, o.seq(100), 8)
	g, err := baseline.TrainGraph(cfg)
	if err != nil {
		return nil, err
	}
	var rows []PolicyAblationRow
	for _, c := range []int{8, 24, 48} {
		row := PolicyAblationRow{Cores: c}
		f, err := sim.Run(g, sim.Options{Machine: machine, Cores: c, Policy: sim.FIFO})
		if err != nil {
			return nil, err
		}
		l, err := sim.Run(g, sim.Options{Machine: machine, Cores: c, Policy: sim.Locality})
		if err != nil {
			return nil, err
		}
		p, err := sim.Run(g, sim.Options{Machine: machine, Cores: c, Policy: sim.CriticalPath})
		if err != nil {
			return nil, err
		}
		row.FIFOSec, row.LocalitySec, row.CPSec = f.MakespanSec, l.MakespanSec, p.MakespanSec
		row.FIFOHit, row.LocalityHit = f.AvgHitRatio, l.AvgHitRatio
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintAblationPolicy renders the policy comparison.
func PrintAblationPolicy(w io.Writer, rows []PolicyAblationRow) {
	fprintf(w, "Scheduling-policy ablation — 8-layer BLSTM, mbs:8\n")
	fprintf(w, "%6s %12s %12s %14s\n", "cores", "fifo(s)", "locality(s)", "crit-path(s)")
	for _, r := range rows {
		fprintf(w, "%6d %12.3f %12.3f %14.3f\n", r.Cores, r.FIFOSec, r.LocalitySec, r.CPSec)
	}
}

// EfficiencyRow reports strong-scaling parallel efficiency at one core
// count: speedup(P) / P relative to single-core execution.
type EfficiencyRow struct {
	Cores      int
	Sec        float64
	Speedup    float64
	Efficiency float64
}

// RunEfficiency computes B-Par's strong-scaling parallel efficiency — the
// "parallel efficiency" analysis the paper's abstract promises — for the
// 8-layer BLSTM at mbs:8.
func RunEfficiency(o Opts) ([]EfficiencyRow, error) {
	machine := costmodel.XeonPlatinum8160x2()
	cfg := blstmCfg(8, 256, 128, o.seq(100), 8)
	g, err := baseline.TrainGraph(cfg)
	if err != nil {
		return nil, err
	}
	base := -1.0
	var rows []EfficiencyRow
	for _, c := range o.cores() {
		r, err := sim.Run(g, sim.Options{Machine: machine, Cores: c, Policy: sim.Locality})
		if err != nil {
			return nil, err
		}
		if base < 0 {
			if c != 1 {
				// Need the 1-core reference even if the sweep omits it.
				r1, err := sim.Run(g, sim.Options{Machine: machine, Cores: 1, Policy: sim.Locality})
				if err != nil {
					return nil, err
				}
				base = r1.MakespanSec
			} else {
				base = r.MakespanSec
			}
		}
		sp := base / r.MakespanSec
		rows = append(rows, EfficiencyRow{Cores: c, Sec: r.MakespanSec, Speedup: sp, Efficiency: sp / float64(c)})
	}
	return rows, nil
}

// PrintEfficiency renders the strong-scaling table.
func PrintEfficiency(w io.Writer, rows []EfficiencyRow) {
	fprintf(w, "Parallel efficiency — 8-layer BLSTM, mbs:8 (B-Par, locality-aware)\n")
	fprintf(w, "%6s %12s %9s %11s\n", "cores", "time(s)", "speedup", "efficiency")
	for _, r := range rows {
		fprintf(w, "%6d %12.3f %9.2f %10.1f%%\n", r.Cores, r.Sec, r.Speedup, r.Efficiency*100)
	}
}

// PlatformRow compares one machine's simulated B-Par execution.
type PlatformRow struct {
	Name        string
	Cores       int
	MakespanSec float64
	AvgHit      float64
}

// RunPlatforms replays the standard 8-layer BLSTM training graph on both
// simulated platforms the paper discusses: the dual-socket Xeon it measures
// on, and a Fugaku A64FX node its introduction motivates (many-core CPU,
// small per-CMG cache, HBM bandwidth).
func RunPlatforms(o Opts) ([]PlatformRow, error) {
	cfg := blstmCfg(8, 256, 128, o.seq(100), 8)
	g, err := baseline.TrainGraph(cfg)
	if err != nil {
		return nil, err
	}
	var rows []PlatformRow
	for _, m := range []costmodel.Machine{costmodel.XeonPlatinum8160x2(), costmodel.FugakuA64FX()} {
		r, err := sim.Run(g, sim.Options{Machine: m, Policy: sim.Locality})
		if err != nil {
			return nil, err
		}
		rows = append(rows, PlatformRow{Name: m.Name, Cores: m.Cores, MakespanSec: r.MakespanSec, AvgHit: r.AvgHitRatio})
	}
	return rows, nil
}

// PrintPlatforms renders the cross-platform comparison.
func PrintPlatforms(w io.Writer, rows []PlatformRow) {
	fprintf(w, "Cross-platform comparison — 8-layer BLSTM training batch, mbs:8, all cores\n")
	for _, r := range rows {
		fprintf(w, "  %-40s %2d cores: %.3fs (cache-hit %.2f)\n", r.Name, r.Cores, r.MakespanSec, r.AvgHit)
	}
}

// CrossoverRow is one sequence length of the CPU-vs-GPU latency study.
type CrossoverRow struct {
	SeqLen          int
	BParSec, GPUSec float64
	SpeedupVsGPU    float64
}

// RunCrossover sweeps sequence length at batch size 1 — the low-latency
// inference regime the paper's introduction motivates for CPUs — and finds
// where the GPU's throughput overtakes B-Par's low fixed cost. Table III's
// batch-1 rows (seq 2, 10, 100) are three points of this curve; the sweep
// exposes the crossover explicitly.
func RunCrossover(o Opts) ([]CrossoverRow, error) {
	machine := costmodel.XeonPlatinum8160x2()
	gpu := baseline.KerasGPU(costmodel.TeslaV100())
	coreCounts := o.cores()
	var rows []CrossoverRow
	for _, seq := range []int{2, 5, 10, 20, 50, 100} {
		cfg := core.Config{
			Cell: core.LSTM, Arch: core.ManyToOne, Merge: core.MergeSum,
			InputSize: 256, HiddenSize: 256, Layers: 6, SeqLen: seq,
			Batch: 1, Classes: 11, MiniBatches: 1, Seed: 1,
		}
		bpar, _, err := simBParBest(cfg, machine, coreCounts)
		if err != nil {
			return nil, err
		}
		g, err := gpu.TrainBatchSec(cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, CrossoverRow{SeqLen: seq, BParSec: bpar, GPUSec: g, SpeedupVsGPU: g / bpar})
	}
	return rows, nil
}

// PrintCrossover renders the latency crossover sweep.
func PrintCrossover(w io.Writer, rows []CrossoverRow) {
	fprintf(w, "Batch-1 latency crossover — 6-layer BLSTM, B-Par-CPU vs Keras-GPU\n")
	fprintf(w, "%8s %12s %12s %10s\n", "seq len", "B-Par(ms)", "K-GPU(ms)", "B-Par adv")
	for _, r := range rows {
		marker := ""
		if r.SpeedupVsGPU < 1 {
			marker = "  <- GPU wins"
		}
		fprintf(w, "%8d %12.2f %12.2f %9.2fx%s\n", r.SeqLen, r.BParSec*1000, r.GPUSec*1000, r.SpeedupVsGPU, marker)
	}
}
