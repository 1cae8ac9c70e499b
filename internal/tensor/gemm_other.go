//go:build !amd64

package tensor

import "unsafe"

// Without the amd64 assembly vecKernels stays false, so these never run.
func hasAVX() bool { return false }

func axpyQuadAVX(d, b []float64, stride int, a0, a1, a2, a3 float64) { panic("tensor: no AVX") }

func dotLanesAVX(acc, aT, b unsafe.Pointer, stride, k int, f32 bool) { panic("tensor: no AVX") }

func dotColsAVX(s, a, b unsafe.Pointer, stride, k int, f32 bool) { panic("tensor: no AVX") }

func actAVX(p unsafe.Pointer, n, op int) int { panic("tensor: no AVX") }
