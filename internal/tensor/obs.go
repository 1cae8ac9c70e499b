package tensor

import (
	"sync/atomic"

	"bpar/internal/obs"
)

// Package-level kernel counters. One atomic add per GEMM/GEMV call — each
// call performs at least thousands of floating-point operations, so the
// accounting cost is noise. Counters are process-wide because the kernels
// are stateless free functions, and split per dtype so the f32 inference
// path can be metered separately from f64 training.
var (
	gemmCalls   atomic.Int64
	gemmFlops   atomic.Int64
	gemmCalls32 atomic.Int64
	gemmFlops32 atomic.Int64
)

// countGemmOf records one kernel invocation performing the given number of
// floating-point operations on the counter pair of E.
func countGemmOf[E Elt](flops int64) {
	if DTypeOf[E]() == F64 {
		gemmCalls.Add(1)
		gemmFlops.Add(flops)
		return
	}
	gemmCalls32.Add(1)
	gemmFlops32.Add(flops)
}

// GEMMCalls returns the number of float64 GEMM/GEMV kernel invocations so far.
func GEMMCalls() int64 { return gemmCalls.Load() }

// GEMMFlops returns the total floating-point operations performed by the
// float64 GEMM/GEMV kernels so far (2*m*k*n per matrix product).
func GEMMFlops() int64 { return gemmFlops.Load() }

// GEMMCalls32 returns the number of float32 GEMM kernel invocations so far.
func GEMMCalls32() int64 { return gemmCalls32.Load() }

// GEMMFlops32 returns the total floating-point operations performed by the
// float32 GEMM kernels so far.
func GEMMFlops32() int64 { return gemmFlops32.Load() }

// RegisterMetrics exposes the kernel counters on reg as bpar_tensor_*.
func RegisterMetrics(reg *obs.Registry) {
	reg.MustCounterFunc("bpar_tensor_gemm_calls_total",
		"Float64 GEMM/GEMV kernel invocations.", func() float64 { return float64(gemmCalls.Load()) })
	reg.MustCounterFunc("bpar_tensor_gemm_flops_total",
		"Floating-point operations performed by the float64 GEMM/GEMV kernels.",
		func() float64 { return float64(gemmFlops.Load()) })
	reg.MustCounterFunc("bpar_tensor_gemm32_calls_total",
		"Float32 GEMM kernel invocations.", func() float64 { return float64(gemmCalls32.Load()) })
	reg.MustCounterFunc("bpar_tensor_gemm32_flops_total",
		"Floating-point operations performed by the float32 GEMM kernels.",
		func() float64 { return float64(gemmFlops32.Load()) })
}
