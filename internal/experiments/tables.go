package experiments

import (
	"fmt"
	"io"

	"bpar/internal/baseline"
	"bpar/internal/core"
	"bpar/internal/costmodel"
	"bpar/internal/sim"
)

// TableRow is one configuration row of Table III (BLSTM) or IV (BGRU).
type TableRow struct {
	Input, Hidden, Batch, Seq int
	Params                    int
	// Batch execution times in seconds. PGPUHang marks the paper's hung
	// PyTorch-GPU runs (>90M parameters).
	KCPU, KGPU, PCPU, PGPU, BSeq, BPar float64
	PGPUHang                           bool
	// Speed-ups of B-Par-CPU w.r.t. each framework.
	SpKCPU, SpKGPU, SpPCPU, SpPGPU float64
}

// tableConfigs are the 12 configuration rows shared by Tables III and IV:
// {input, hidden, batch, seq}.
var tableConfigs = [][4]int{
	{64, 256, 128, 100},
	{256, 256, 128, 100},
	{1024, 256, 128, 100},
	{256, 256, 1, 2},
	{256, 256, 1, 10},
	{256, 256, 1, 100},
	{64, 256, 256, 100},
	{64, 1024, 256, 100},
	{256, 256, 256, 100},
	{256, 1024, 256, 100},
	{1024, 256, 256, 100},
	{1024, 1024, 256, 100},
}

// tableConfig builds the 6-layer many-to-one model of one row.
func tableConfig(cell core.CellKind, row [4]int, seqOverride int) core.Config {
	seq := row[3]
	if seqOverride > 0 && seq > seqOverride {
		seq = seqOverride
	}
	mbs := 8
	if row[2] < 8 {
		mbs = 1 // batch-1 rows cannot split
	}
	return core.Config{
		Cell: cell, Arch: core.ManyToOne, Merge: core.MergeSum,
		InputSize: row[0], HiddenSize: row[1], Layers: 6, SeqLen: seq,
		Batch: row[2], Classes: 11, MiniBatches: mbs, Seed: 1,
	}
}

// RunTable computes Table III (LSTM) or Table IV (GRU).
func RunTable(cell core.CellKind, o Opts) ([]TableRow, error) {
	machine := costmodel.XeonPlatinum8160x2()
	gpu := baseline.KerasGPU(costmodel.TeslaV100())
	pgpu := baseline.PyTorchGPU(costmodel.TeslaV100())
	kcpu := baseline.KerasCPU(machine)
	pcpu := baseline.PyTorchCPU(machine)
	coreCounts := o.cores()

	var rows []TableRow
	for _, rc := range tableConfigs {
		cfg := tableConfig(cell, rc, o.SeqLen)
		row := TableRow{
			Input: rc[0], Hidden: rc[1], Batch: rc[2], Seq: cfg.SeqLen,
			Params: cfg.ParamCount(),
		}
		row.KCPU, _ = kcpu.BestOverCores(cfg, coreCounts, true)
		row.PCPU, _ = pcpu.BestOverCores(cfg, coreCounts, true)
		var err error
		row.KGPU, err = gpu.TrainBatchSec(cfg)
		if err != nil {
			return nil, err
		}
		row.PGPU, err = pgpu.TrainBatchSec(cfg)
		if err == baseline.ErrHang {
			row.PGPUHang = true
		} else if err != nil {
			return nil, err
		}

		row.BPar, row.BSeq, err = trainBest(cfg, machine, coreCounts)
		if err != nil {
			return nil, err
		}

		row.SpKCPU = row.KCPU / row.BPar
		row.SpKGPU = row.KGPU / row.BPar
		row.SpPCPU = row.PCPU / row.BPar
		if !row.PGPUHang {
			row.SpPGPU = row.PGPU / row.BPar
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintTable renders rows in the paper's Table III/IV layout.
func PrintTable(w io.Writer, title string, rows []TableRow) {
	fprintf(w, "%s\n", title)
	fprintf(w, "%6s %6s %6s %5s %8s | %10s %10s %10s %10s %10s %10s | %6s %6s %6s %6s\n",
		"Input", "Hidden", "Batch", "Seq", "Params",
		"K-CPU(ms)", "K-GPU(ms)", "P-CPU(ms)", "P-GPU(ms)", "BSeq(ms)", "BPar(ms)",
		"vsKC", "vsKG", "vsPC", "vsPG")
	for _, r := range rows {
		pgpu := fmt.Sprintf("%10.1f", r.PGPU*1000)
		spg := fmt.Sprintf("%6.2f", r.SpPGPU)
		if r.PGPUHang {
			pgpu, spg = fmt.Sprintf("%10s", "-"), fmt.Sprintf("%6s", "-")
		}
		fprintf(w, "%6d %6d %6d %5d %7.1fM | %10.1f %10.1f %10.1f %s %10.1f %10.1f | %6.2f %6.2f %6.2f %s\n",
			r.Input, r.Hidden, r.Batch, r.Seq, float64(r.Params)/1e6,
			r.KCPU*1000, r.KGPU*1000, r.PCPU*1000, pgpu, r.BSeq*1000, r.BPar*1000,
			r.SpKCPU, r.SpKGPU, r.SpPCPU, spg)
	}
}

// AblationBarrier compares the same model executed barrier-free (B-Par)
// versus with framework-style per-layer barriers, on the simulated machine —
// the core design-choice ablation of the paper.
type AblationBarrierResult struct {
	BarrierFreeSec, BarrierSec float64
	// Speedup = BarrierSec / BarrierFreeSec.
	Speedup float64
	// AvgParallelismFree and AvgParallelismBarrier show why: barrier-free
	// execution keeps more tasks in flight.
	AvgParallelismFree, AvgParallelismBarrier float64
}

// RunAblationBarrier runs the barrier ablation on an 8-layer BLSTM.
func RunAblationBarrier(o Opts) (*AblationBarrierResult, error) {
	machine := costmodel.XeonPlatinum8160x2()
	cfg := core.Config{
		Cell: core.LSTM, Arch: core.ManyToOne, Merge: core.MergeSum,
		InputSize: 256, HiddenSize: 256, Layers: 8, SeqLen: o.seq(100),
		Batch: 128, Classes: 11, MiniBatches: 8, Seed: 1,
	}
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
	return &AblationBarrierResult{
		BarrierFreeSec:        rFree.MakespanSec,
		BarrierSec:            rBar.MakespanSec,
		Speedup:               rBar.MakespanSec / rFree.MakespanSec,
		AvgParallelismFree:    rFree.AvgParallelism,
		AvgParallelismBarrier: rBar.AvgParallelism,
	}, nil
}
