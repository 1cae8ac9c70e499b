package core

import (
	"math"

	"bpar/internal/tensor"
)

func mathSqrt(x float64) float64 { return math.Sqrt(x) }
func logF(x float64) float64     { return math.Log(x) }

// mergeForward computes Equation 11: dst = merge(hFwd, hRev).
// dst is [batch x MergeDim]; hFwd/hRev are [batch x Hidden].
func mergeForward[E tensor.Elt](op MergeOp, dst, hFwd, hRev *tensor.Mat[E]) {
	switch op {
	case MergeSum:
		tensor.Add(dst, hFwd, hRev)
	case MergeAvg:
		tensor.Average(dst, hFwd, hRev)
	case MergeMul:
		tensor.Mul(dst, hFwd, hRev)
	case MergeConcat:
		tensor.ConcatCols(dst, hFwd, hRev)
	default:
		panic("core: unknown merge op")
	}
}

// mergeBackward propagates dMerged through Equation 11, writing the
// gradient w.r.t. each direction's hidden output. For MergeMul it needs the
// forward values of the opposite direction.
func mergeBackward(op MergeOp, dMerged, hFwd, hRev, dHFwd, dHRev *tensor.Matrix) {
	switch op {
	case MergeSum:
		dHFwd.CopyFrom(dMerged)
		dHRev.CopyFrom(dMerged)
	case MergeAvg:
		tensor.Scale(dHFwd, 0.5, dMerged)
		tensor.Scale(dHRev, 0.5, dMerged)
	case MergeMul:
		tensor.Mul(dHFwd, dMerged, hRev)
		tensor.Mul(dHRev, dMerged, hFwd)
	case MergeConcat:
		tensor.SplitCols(dMerged, dHFwd, dHRev)
	default:
		panic("core: unknown merge op")
	}
}

// Cost estimates the floating-point work and the bytes touched of one merge
// task (forward or backward) over batch rows of width hidden.
func (op MergeOp) Cost(batch, hidden int) (flops float64, workingSet int64) {
	n := float64(batch * hidden)
	flops = 2 * n
	in := int64(2 * batch * hidden * 8)
	out := int64(batch * hidden * 8)
	if op == MergeConcat {
		flops = n // pure copy traffic, count one op per element
		out *= 2
	}
	return flops, in + out
}
