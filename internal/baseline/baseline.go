// Package baseline models the execution time of the paper's comparator
// frameworks — TensorFlow-Keras and PyTorch on CPUs, and both on a GPU.
//
// These are executable substitutes for software we cannot run here (MKL
// builds of TF 2.3 / PyTorch 1.7, cuDNN on a V100). Each model encodes the
// *structural* properties the paper attributes to the frameworks, so the
// comparisons B-Par wins (or loses) are decided by structure, not by tuned
// constants:
//
//   - Per-layer execution with barriers: within a layer, the forward-order
//     RNN runs its timesteps sequentially, then the reverse-order RNN, then
//     the merges; the next layer starts only after a synchronization point.
//   - Intra-op parallelism only: each timestep's fused GEMM is parallelized
//     across cores with Amdahl-style efficiency that degrades for small
//     batches (a batch-1 GEMV barely parallelizes).
//   - A NUMA cliff when runs span both sockets (the paper restricts ≤24-core
//     runs to one socket; at 32/48 cores Keras visibly degrades).
//   - PyTorch adds higher per-op dispatch overhead and cache-thrashing on
//     models whose per-layer weights exceed the L3, reproducing its collapse
//     on 90M+-parameter models in Table III.
//   - GPUs have high throughput but per-kernel launch latency and fixed
//     framework overhead, so small batch/sequence workloads favour CPUs.
//
// The package also records the B-Par side of every simulated comparison:
// TrainGraph, InferGraph and BarrierTrainGraph build the paper's
// one-task-per-cell graph of Algorithms 1–3 from a core.Config alone, priced
// by the same fused cell costs the framework models use. The engine
// executes a finer, split-gate graph; this one is the shape the simulator
// is calibrated on.
package baseline

import (
	"fmt"
	"math"

	"bpar/internal/core"
	"bpar/internal/costmodel"
)

func exp(x float64) float64 { return math.Exp(x) }
func ln(x float64) float64  { return math.Log(x) }

// CPUModel is an analytic per-layer-barrier framework execution model.
type CPUModel struct {
	Name    string
	Machine costmodel.Machine
	// PerOpSec is the dispatch overhead per primitive operation (one cell
	// step counts opsPerStep primitives).
	PerOpSec float64
	// OpsPerStep is the primitive-op count per RNN timestep.
	OpsPerStep float64
	// BarrierSec is the cost of one inter-layer synchronization.
	BarrierSec float64
	// NUMAFactor multiplies compute time when the run spans two sockets.
	NUMAFactor float64
	// ThrashSlope scales the slowdown when one layer's weights exceed the
	// socket L3 (set high for PyTorch).
	ThrashSlope float64
	// ParallelFrac returns the Amdahl parallel fraction of one fused GEMM
	// given its row count (batch).
	ParallelFrac func(rows int) float64
	// RateCapGFlops bounds the aggregate rate of one GEMM given its size.
	RateCapGFlops func(gemmFlops float64) float64
}

// defaultParallelFrac models MKL intra-op scaling: parallel efficiency
// grows with the GEMM's row count (batch) — a batch-256 GEMM scales almost
// perfectly, a single-row GEMV barely at all. The GEMM's size enters
// through RateCapGFlops instead.
func defaultParallelFrac(rows int) float64 {
	switch {
	case rows >= 64:
		return 0.95
	case rows >= 16:
		return 0.85
	case rows >= 4:
		return 0.65
	case rows > 1:
		return 0.5
	default:
		return 0.4
	}
}

// defaultRateCap bounds the aggregate GFLOP/s one framework GEMM extracts
// from the whole machine: per-timestep GEMMs are dispatched one at a time,
// and the smaller the GEMM the harder the dispatch/sync/bandwidth ceiling
// bites. Calibrated against the paper's measured Keras aggregate rates
// (~270 GF/s at batch 128 hidden 256; ~510 GF/s at batch 256 hidden 1024).
func defaultRateCap(gemmFlops float64) float64 {
	cap := 40 * pow035(gemmFlops/1e6)
	if cap > 550 {
		cap = 550
	}
	return cap
}

// pow035 approximates x^0.35 for positive x.
func pow035(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return exp(0.35 * ln(x))
}

// KerasCPU returns the TensorFlow-Keras CPU model.
func KerasCPU(m costmodel.Machine) *CPUModel {
	return &CPUModel{
		Name: "Keras-CPU", Machine: m,
		PerOpSec: 30e-6, OpsPerStep: 5, BarrierSec: 0.5e-3,
		NUMAFactor: 1.25, ThrashSlope: 0.3,
		ParallelFrac:  defaultParallelFrac,
		RateCapGFlops: defaultRateCap,
	}
}

// PyTorchCPU returns the PyTorch CPU model: same structure, heavier
// dispatch, and severe cache thrash on huge layers.
func PyTorchCPU(m costmodel.Machine) *CPUModel {
	return &CPUModel{
		Name: "PyTorch-CPU", Machine: m,
		PerOpSec: 80e-6, OpsPerStep: 6, BarrierSec: 1.5e-3,
		NUMAFactor: 1.35, ThrashSlope: 2.2,
		ParallelFrac:  func(rows int) float64 { return defaultParallelFrac(rows) * 0.95 },
		RateCapGFlops: func(gemmFlops float64) float64 { return 0.55 * defaultRateCap(gemmFlops) },
	}
}

// baseRate returns the single-core GFLOP rate of one fused GEMM: large
// batches run at the machine's compute rate, while narrow GEMMs (down to the
// batch-1 GEMV) are memory-bound and far slower.
func (f *CPUModel) baseRate(rows int) float64 {
	const gemvGFlops = 10.0
	if rows >= 64 {
		return f.Machine.CoreGFlops
	}
	fracR := float64(rows) / 64
	return gemvGFlops + (f.Machine.CoreGFlops-gemvGFlops)*fracR
}

// gemmSec is the time of one fused cell GEMM parallelized across p cores.
func (f *CPUModel) gemmSec(flops float64, p int, rows int, weightBytes int64) float64 {
	frac := f.ParallelFrac(rows)
	speedup := 1.0 / ((1 - frac) + frac/float64(p))
	rate := f.baseRate(rows) * speedup
	if cap := f.RateCapGFlops(flops); rate > cap {
		rate = cap
	}
	t := flops / (rate * 1e9)
	// Cache thrash: repeatedly streaming weights larger than L3.
	if over := float64(weightBytes)/float64(f.Machine.L3PerSocketBytes) - 1; over > 0 {
		t *= 1 + f.ThrashSlope*over
	}
	return t
}

// batchSec is the common per-layer-barrier walk; train selects whether the
// backward pass is included.
func (f *CPUModel) batchSec(cfg core.Config, cores int, train bool) float64 {
	if cores < 1 {
		cores = 1
	}
	if cores > f.Machine.Cores {
		cores = f.Machine.Cores
	}
	numa := 1.0
	if cores > f.Machine.CoresPerSocket() {
		numa = f.NUMAFactor
	}
	T := float64(cfg.SeqLen)
	total := 0.0
	for l := 0; l < cfg.Layers; l++ {
		wB := int64(dirParamCount(cfg, l)) * 8 // one direction's weights
		fw := f.gemmSec(cellFlops(cfg, l, cfg.Batch, false), cores, cfg.Batch, wB)
		// Forward-order steps, then reverse-order steps, sequentially.
		layer := 2 * T * (fw + f.OpsPerStep*f.PerOpSec)
		if train {
			bw := f.gemmSec(cellFlops(cfg, l, cfg.Batch, true), cores, cfg.Batch, wB)
			layer += 2 * T * (bw + f.OpsPerStep*f.PerOpSec)
		}
		// Merges are cheap element-wise ops plus their dispatches.
		layer += T * f.PerOpSec
		// Per-layer synchronization point (twice when training: forward
		// and backward walks both sync).
		layer += f.BarrierSec
		if train {
			layer += f.BarrierSec
		}
		total += layer
	}
	return total * numa
}

// TrainBatchSec estimates one training batch (forward + backward + update).
func (f *CPUModel) TrainBatchSec(cfg core.Config, cores int) float64 {
	return f.batchSec(cfg, cores, true)
}

// BestOverCores returns the minimum batch time over the given core counts
// and the core count achieving it — the paper reports framework results at
// their best configuration.
func (f *CPUModel) BestOverCores(cfg core.Config, coreCounts []int, train bool) (float64, int) {
	best, bestC := -1.0, 0
	for _, c := range coreCounts {
		t := f.batchSec(cfg, c, train)
		if best < 0 || t < best {
			best, bestC = t, c
		}
	}
	return best, bestC
}

// GPUModel is the cuDNN-style accelerator model.
type GPUModel struct {
	Name string
	GPU  costmodel.GPU
	// StepOverheadSec is the per-timestep framework overhead on top of the
	// raw kernel launch.
	StepOverheadSec float64
	// Hang reproduces PyTorch's behaviour on >90M-parameter models, for
	// which the paper reports hung executions (empty table cells).
	HangThresholdParams int
}

// KerasGPU returns the TF-Keras GPU model.
func KerasGPU(g costmodel.GPU) *GPUModel {
	return &GPUModel{Name: "Keras-GPU", GPU: g, StepOverheadSec: 75e-6}
}

// PyTorchGPU returns the PyTorch GPU model.
func PyTorchGPU(g costmodel.GPU) *GPUModel {
	return &GPUModel{Name: "PyTorch-GPU", GPU: g, StepOverheadSec: 650e-6, HangThresholdParams: 90_000_000}
}

// ErrHang is returned when the modelled framework cannot complete the
// workload (PyTorch-GPU on >90M-parameter models in the paper).
var ErrHang = fmt.Errorf("baseline: framework hangs on this configuration")

// TrainBatchSec estimates one training batch; returns ErrHang where the
// paper reports hung runs.
func (f *GPUModel) TrainBatchSec(cfg core.Config) (float64, error) {
	if f.HangThresholdParams > 0 && cfg.ParamCount() > f.HangThresholdParams {
		return 0, ErrHang
	}
	total := f.GPU.FixedSec
	for l := 0; l < cfg.Layers; l++ {
		flops := cellFlops(cfg, l, cfg.Batch, false) * 3 // forward + backward(2x)
		stepSec := f.GPU.LaunchSec + f.StepOverheadSec + flops/(f.GPU.EffTFlops*1e12)
		// The two directions overlap on independent streams; model 80%
		// overlap efficiency.
		total += 2 * float64(cfg.SeqLen) * stepSec * 0.6
	}
	return total, nil
}
