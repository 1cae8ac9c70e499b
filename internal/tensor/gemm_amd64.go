package tensor

import "unsafe"

// The AVX microkernels of gemm_vec.go and activations.go; gemm_amd64.s and
// act_amd64.s document each one.

func hasAVX() bool

//go:noescape
func axpyQuadAVX(d, b []float64, stride int, a0, a1, a2, a3 float64)

//go:noescape
func dotLanesAVX(acc, aT, b unsafe.Pointer, stride, k int, f32 bool)

//go:noescape
func dotColsAVX(s, a, b unsafe.Pointer, stride, k int, f32 bool)

//go:noescape
func actAVX(p unsafe.Pointer, n, op int) int
