//go:build !amd64

package tensor

// Without the amd64 assembly vecKernels stays false, so these never run.
func hasAVX() bool { return false }

func axpyQuadAVX(d, b []float64, stride int, a0, a1, a2, a3 float64) { panic("tensor: no AVX") }

func dotLanesAVX(acc *[32]float64, aT *float64, b []float64, stride, k int) { panic("tensor: no AVX") }

func dotColsAVX(s *[8]float64, a, b []float64, stride int) { panic("tensor: no AVX") }
