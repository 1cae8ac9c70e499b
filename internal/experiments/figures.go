package experiments

import (
	"io"

	"bpar/internal/baseline"
	"bpar/internal/core"
	"bpar/internal/costmodel"
	"bpar/internal/sim"
)

// fig3MBS is the mini-batch sweep of Figure 3.
var fig3MBS = []int{1, 2, 4, 6, 8, 10, 12}

// blstmCfg builds the many-to-one BLSTM used by Figures 3-7: sequence
// length 100, input 256 (unless overridden), batch 128.
func blstmCfg(layers, hidden, batch, seqLen, mbs int) core.Config {
	return core.Config{
		Cell: core.LSTM, Arch: core.ManyToOne, Merge: core.MergeSum,
		InputSize: 256, HiddenSize: hidden, Layers: layers, SeqLen: seqLen,
		Batch: batch, Classes: 11, MiniBatches: mbs, Seed: 1,
	}
}

// Fig3Result holds one layer count's speed-up surface: Speedup[mi][ci] is
// the speed-up of (mbs[mi], cores[ci]) over mbs:1 on one core.
type Fig3Result struct {
	Layers  int
	MBS     []int
	Cores   []int
	BaseSec float64
	TimeSec [][]float64
	Speedup [][]float64
}

// RunFig3 regenerates Figure 3: B-Par self-relative scalability across
// mini-batch sizes and core counts for 8- and 12-layer BLSTMs.
func RunFig3(o Opts) ([]*Fig3Result, error) {
	machine := costmodel.XeonPlatinum8160x2()
	cores := o.cores()
	var out []*Fig3Result
	for _, layers := range []int{8, 12} {
		res := &Fig3Result{Layers: layers, MBS: fig3MBS, Cores: cores}
		base := -1.0
		for _, mbs := range fig3MBS {
			cfg := blstmCfg(layers, 256, 128, o.seq(100), mbs)
			g, err := baseline.TrainGraph(cfg)
			if err != nil {
				return nil, err
			}
			var times []float64
			for _, c := range cores {
				r, err := sim.Run(g, sim.Options{Machine: machine, Cores: c, Policy: sim.Locality})
				if err != nil {
					return nil, err
				}
				times = append(times, r.MakespanSec)
				if mbs == 1 && c == 1 {
					base = r.MakespanSec
				}
			}
			res.TimeSec = append(res.TimeSec, times)
		}
		if base < 0 {
			// Core sweep without 1 core: compute the baseline explicitly.
			cfg := blstmCfg(layers, 256, 128, o.seq(100), 1)
			g, err := baseline.TrainGraph(cfg)
			if err != nil {
				return nil, err
			}
			r, err := sim.Run(g, sim.Options{Machine: machine, Cores: 1, Policy: sim.Locality})
			if err != nil {
				return nil, err
			}
			base = r.MakespanSec
		}
		res.BaseSec = base
		for _, times := range res.TimeSec {
			var sp []float64
			for _, t := range times {
				sp = append(sp, base/t)
			}
			res.Speedup = append(res.Speedup, sp)
		}
		out = append(out, res)
	}
	return out, nil
}

// PrintFig3 renders the speed-up surfaces.
func PrintFig3(w io.Writer, results []*Fig3Result) {
	for _, r := range results {
		fprintf(w, "Fig 3 — %d-layer BLSTM, speed-up vs B-Par-mbs:1 @1 core (base %.3fs)\n", r.Layers, r.BaseSec)
		fprintf(w, "%7s", "mbs\\cores")
		for _, c := range r.Cores {
			fprintf(w, "%8d", c)
		}
		fprintf(w, "\n")
		for mi, mbs := range r.MBS {
			fprintf(w, "%9d", mbs)
			for ci := range r.Cores {
				fprintf(w, "%8.2f", r.Speedup[mi][ci])
			}
			fprintf(w, "\n")
		}
	}
}

// Fig4Result holds Figure 4's batch-training-time series over core counts
// for the four systems, 8-layer BLSTM.
type Fig4Result struct {
	Cores                      []int
	Keras, PyTorch, BSeq, BPar []float64
}

// RunFig4 regenerates Figure 4.
func RunFig4(o Opts) (*Fig4Result, error) {
	machine := costmodel.XeonPlatinum8160x2()
	cores := o.cores()
	cfg := blstmCfg(8, 256, 128, o.seq(100), 8)
	k := baseline.KerasCPU(machine)
	p := baseline.PyTorchCPU(machine)
	g, err := baseline.TrainGraph(cfg)
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{Cores: cores}
	flops := g.TotalFlops()
	for _, c := range cores {
		res.Keras = append(res.Keras, k.TrainBatchSec(cfg, c))
		res.PyTorch = append(res.PyTorch, p.TrainBatchSec(cfg, c))
		res.BSeq = append(res.BSeq, bseqTrainSec(flops, cfg.MiniBatches, machine, c))
		r, err := sim.Run(g, sim.Options{Machine: machine, Cores: c, Policy: sim.Locality})
		if err != nil {
			return nil, err
		}
		res.BPar = append(res.BPar, r.MakespanSec)
	}
	return res, nil
}

// PrintFig4 renders the four series.
func PrintFig4(w io.Writer, r *Fig4Result) {
	fprintf(w, "Fig 4 — 8-layer BLSTM batch training time (s) vs core count (mbs:8)\n")
	fprintf(w, "%6s %10s %10s %10s %10s\n", "cores", "Keras", "PyTorch", "B-Seq", "B-Par")
	for i, c := range r.Cores {
		fprintf(w, "%6d %10.3f %10.3f %10.3f %10.3f\n", c, r.Keras[i], r.PyTorch[i], r.BSeq[i], r.BPar[i])
	}
}

// Fig5Row is one (layers, hidden, batch) point of Figure 5: best-over-cores
// single-batch training time per system.
type Fig5Row struct {
	Layers, Hidden, Batch      int
	Keras, PyTorch, BSeq, BPar float64
	SpeedupVsKeras             float64
	SpeedupVsPyTorch           float64
}

// RunFig5 regenerates Figure 5: batch sizes 128-1024, hidden 128/256,
// 8- and 12-layer BLSTMs.
func RunFig5(o Opts) ([]Fig5Row, error) {
	machine := costmodel.XeonPlatinum8160x2()
	cores := o.cores()
	k := baseline.KerasCPU(machine)
	p := baseline.PyTorchCPU(machine)
	var rows []Fig5Row
	for _, layers := range []int{8, 12} {
		for _, hidden := range []int{128, 256} {
			for _, batch := range []int{128, 256, 512, 1024} {
				cfg := blstmCfg(layers, hidden, batch, o.seq(100), 8)
				row := Fig5Row{Layers: layers, Hidden: hidden, Batch: batch}
				row.Keras, _ = k.BestOverCores(cfg, cores, true)
				row.PyTorch, _ = p.BestOverCores(cfg, cores, true)
				var err error
				row.BPar, row.BSeq, err = trainBest(cfg, machine, cores)
				if err != nil {
					return nil, err
				}
				row.SpeedupVsKeras = row.Keras / row.BPar
				row.SpeedupVsPyTorch = row.PyTorch / row.BPar
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// PrintFig5 renders the grid.
func PrintFig5(w io.Writer, rows []Fig5Row) {
	fprintf(w, "Fig 5 — best-over-cores batch training time (s), varying batch and hidden size\n")
	fprintf(w, "%6s %6s %6s %10s %10s %10s %10s %8s %8s\n",
		"layers", "hidden", "batch", "Keras", "PyTorch", "B-Seq", "B-Par", "vsKeras", "vsPyT")
	for _, r := range rows {
		fprintf(w, "%6d %6d %6d %10.3f %10.3f %10.3f %10.3f %8.2f %8.2f\n",
			r.Layers, r.Hidden, r.Batch, r.Keras, r.PyTorch, r.BSeq, r.BPar,
			r.SpeedupVsKeras, r.SpeedupVsPyTorch)
	}
}

// Fig6Row is one layer count of Figure 6: training and inference times.
type Fig6Row struct {
	Layers                                         int
	TrainKeras, TrainPyTorch, TrainBSeq, TrainBPar float64
	InferKeras, InferPyTorch, InferBPar            float64
	TrainSpeedup, InferSpeedup                     float64 // B-Par vs best framework
}

// RunFig6 regenerates Figure 6: layer counts 2-12, training and inference.
func RunFig6(o Opts) ([]Fig6Row, error) {
	machine := costmodel.XeonPlatinum8160x2()
	cores := o.cores()
	k := baseline.KerasCPU(machine)
	p := baseline.PyTorchCPU(machine)
	var rows []Fig6Row
	for _, layers := range []int{2, 4, 8, 12} {
		cfg := blstmCfg(layers, 256, 128, o.seq(100), 8)
		row := Fig6Row{Layers: layers}
		row.TrainKeras, _ = k.BestOverCores(cfg, cores, true)
		row.TrainPyTorch, _ = p.BestOverCores(cfg, cores, true)
		var err error
		row.TrainBPar, row.TrainBSeq, err = trainBest(cfg, machine, cores)
		if err != nil {
			return nil, err
		}

		row.InferKeras, _ = k.BestOverCores(cfg, cores, false)
		row.InferPyTorch, _ = p.BestOverCores(cfg, cores, false)
		ig, err := baseline.InferGraph(cfg)
		if err != nil {
			return nil, err
		}
		bestI := -1.0
		for _, c := range cores {
			r, err := sim.Run(ig, sim.Options{Machine: machine, Cores: c, Policy: sim.Locality})
			if err != nil {
				return nil, err
			}
			if bestI < 0 || r.MakespanSec < bestI {
				bestI = r.MakespanSec
			}
		}
		row.InferBPar = bestI

		row.TrainSpeedup = row.TrainKeras / row.TrainBPar
		row.InferSpeedup = row.InferKeras / row.InferBPar
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig6 renders training/inference scaling by depth.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	fprintf(w, "Fig 6 — batch time (s) vs layer count (best over cores)\n")
	fprintf(w, "%6s | %9s %9s %9s %9s %7s | %9s %9s %9s %7s\n",
		"layers", "K-train", "P-train", "BSeq-tr", "BPar-tr", "spd",
		"K-infer", "P-infer", "BPar-inf", "spd")
	for _, r := range rows {
		fprintf(w, "%6d | %9.3f %9.3f %9.3f %9.3f %7.2f | %9.3f %9.3f %9.3f %7.2f\n",
			r.Layers, r.TrainKeras, r.TrainPyTorch, r.TrainBSeq, r.TrainBPar, r.TrainSpeedup,
			r.InferKeras, r.InferPyTorch, r.InferBPar, r.InferSpeedup)
	}
}

// Fig7Result is the locality study: the same 8-layer, 31.7M-parameter BLSTM
// graph simulated with the locality-oblivious FIFO scheduler and with the
// locality-aware scheduler.
type Fig7Result struct {
	FIFOSec, LocalitySec float64
	// Improvement is 1 - locality/fifo (the paper reports ~20%).
	Improvement float64
	// Shares of execution time per IPC bucket [0,0.5,1,1.5,2) and per
	// MPKI bucket [0,10,20,30+).
	FIFOIPCShares, LocIPCShares   []float64
	FIFOMPKIShares, LocMPKIShares []float64
	FIFOHit, LocHit               float64
}

// RunFig7 regenerates Figure 7 on the 8-layer hidden-512 model whose 31.7M
// parameters exceed the cache hierarchy.
func RunFig7(o Opts) (*Fig7Result, error) {
	machine := costmodel.XeonPlatinum8160x2()
	cfg := blstmCfg(8, 512, 128, o.seq(100), 6)
	g, err := baseline.TrainGraph(cfg)
	if err != nil {
		return nil, err
	}
	fifo, err := sim.Run(g, sim.Options{Machine: machine, Cores: 48, Policy: sim.FIFO})
	if err != nil {
		return nil, err
	}
	loc, err := sim.Run(g, sim.Options{Machine: machine, Cores: 48, Policy: sim.Locality})
	if err != nil {
		return nil, err
	}
	return &Fig7Result{
		FIFOSec:        fifo.MakespanSec,
		LocalitySec:    loc.MakespanSec,
		Improvement:    1 - loc.MakespanSec/fifo.MakespanSec,
		FIFOIPCShares:  fifo.IPCHist.Shares(),
		LocIPCShares:   loc.IPCHist.Shares(),
		FIFOMPKIShares: fifo.MPKIHist.Shares(),
		LocMPKIShares:  loc.MPKIHist.Shares(),
		FIFOHit:        fifo.AvgHitRatio,
		LocHit:         loc.AvgHitRatio,
	}, nil
}

// PrintFig7 renders the histograms and the improvement headline.
func PrintFig7(w io.Writer, r *Fig7Result) {
	fprintf(w, "Fig 7 — locality-aware vs locality-oblivious scheduling (8-layer BLSTM, 31.7M params)\n")
	fprintf(w, "batch time: oblivious %.3fs, locality-aware %.3fs (%.1f%% faster)\n",
		r.FIFOSec, r.LocalitySec, r.Improvement*100)
	fprintf(w, "avg cache-hit ratio: oblivious %.2f, locality-aware %.2f\n", r.FIFOHit, r.LocHit)
	ipcEdges := []string{"0-0.5", "0.5-1", "1-1.5", "1.5-2", "2+"}
	fprintf(w, "IPC time shares:   %8s %8s\n", "oblivious", "locality")
	for i, e := range ipcEdges {
		fprintf(w, "  %-6s %8.1f%% %8.1f%%\n", e, r.FIFOIPCShares[i]*100, r.LocIPCShares[i]*100)
	}
	mpkiEdges := []string{"0-10", "10-20", "20-30", "30+"}
	fprintf(w, "L3 MPKI time shares:\n")
	for i, e := range mpkiEdges {
		fprintf(w, "  %-6s %8.1f%% %8.1f%%\n", e, r.FIFOMPKIShares[i]*100, r.LocMPKIShares[i]*100)
	}
}

// Fig8Row is one point of Figure 8: many-to-many next-character prediction,
// B-Par vs Keras.
type Fig8Row struct {
	Cell          core.CellKind
	Layers        int
	Hidden, Batch int
	Keras, BPar   float64
	Speedup       float64
}

// RunFig8 regenerates Figure 8 over both cell kinds, layer counts 2-12 and
// batch/hidden combinations, on the synthetic Wikipedia task shapes.
func RunFig8(o Opts) ([]Fig8Row, error) {
	machine := costmodel.XeonPlatinum8160x2()
	cores := o.cores()
	k := baseline.KerasCPU(machine)
	const vocab = 64
	var rows []Fig8Row
	for _, cellKind := range []core.CellKind{core.LSTM, core.GRU} {
		for _, layers := range []int{2, 4, 8, 12} {
			for _, hidden := range []int{128, 256} {
				for _, batch := range []int{128, 256} {
					cfg := core.Config{
						Cell: cellKind, Arch: core.ManyToMany, Merge: core.MergeSum,
						InputSize: vocab, HiddenSize: hidden, Layers: layers,
						SeqLen: o.seq(100), Batch: batch, Classes: vocab,
						MiniBatches: 8, Seed: 1,
					}
					row := Fig8Row{Cell: cellKind, Layers: layers, Hidden: hidden, Batch: batch}
					row.Keras, _ = k.BestOverCores(cfg, cores, true)
					var err error
					row.BPar, _, err = simBParBest(cfg, machine, cores)
					if err != nil {
						return nil, err
					}
					row.Speedup = row.Keras / row.BPar
					rows = append(rows, row)
				}
			}
		}
	}
	return rows, nil
}

// PrintFig8 renders the grid with per-layer-count maxima (the numbers the
// paper quotes: 1.54x, 2.17x, 2.38x, 2.44x for 2, 4, 8, 12 layers).
func PrintFig8(w io.Writer, rows []Fig8Row) {
	fprintf(w, "Fig 8 — next-character prediction (many-to-many), B-Par vs Keras (s)\n")
	fprintf(w, "%5s %6s %6s %6s %10s %10s %8s\n", "cell", "layers", "hidden", "batch", "Keras", "B-Par", "speedup")
	maxPerLayer := map[int]float64{}
	for _, r := range rows {
		fprintf(w, "%5s %6d %6d %6d %10.3f %10.3f %8.2f\n",
			r.Cell, r.Layers, r.Hidden, r.Batch, r.Keras, r.BPar, r.Speedup)
		if r.Speedup > maxPerLayer[r.Layers] {
			maxPerLayer[r.Layers] = r.Speedup
		}
	}
	for _, l := range []int{2, 4, 8, 12} {
		fprintf(w, "max speed-up %d layers: %.2fx\n", l, maxPerLayer[l])
	}
}
