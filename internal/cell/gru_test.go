package cell

import (
	"math"
	"testing"

	"bpar/internal/rng"
	"bpar/internal/tensor"
)

// gruChainLoss runs a GRU chain and returns the masked sum of hidden
// outputs, for numeric gradient checking.
func gruChainLoss(w *GRUWeights, xs []*tensor.Matrix, masks []*tensor.Matrix, batch int) float64 {
	H := w.HiddenSize
	hPrev := tensor.New(batch, H)
	loss := 0.0
	for t := range xs {
		st := NewGRUState(batch, w.InputSize, H)
		gruStep(w, xs[t], hPrev, st)
		for i, v := range st.H.Data {
			loss += masks[t].Data[i] * v
		}
		hPrev = st.H
	}
	return loss
}

func TestGRUForwardShapesAndRange(t *testing.T) {
	r := rng.New(1)
	w := NewGRUWeights(3, 5)
	w.Init(r)
	batch := 4
	x := tensor.New(batch, 3)
	r.FillUniform(x.Data, -1, 1)
	st := NewGRUState(batch, 3, 5)
	gruStep(w, x, tensor.New(batch, 5), st)
	for _, v := range st.H.Data {
		if math.Abs(v) >= 1 || math.IsNaN(v) {
			t.Fatalf("H out of range: %g", v)
		}
	}
	for _, v := range st.ZR.Data {
		if v <= 0 || v >= 1 {
			t.Fatalf("gate out of (0,1): %g", v)
		}
	}
}

func TestGRUInterpolationProperty(t *testing.T) {
	// Equation 10: h is an element-wise convex combination of hbar and
	// hPrev, so it must lie between them.
	r := rng.New(2)
	w := NewGRUWeights(4, 6)
	w.Init(r)
	batch := 3
	x := tensor.New(batch, 4)
	r.FillUniform(x.Data, -1, 1)
	hPrev := tensor.New(batch, 6)
	r.FillUniform(hPrev.Data, -1, 1)
	st := NewGRUState(batch, 4, 6)
	gruStep(w, x, hPrev, st)
	for i, h := range st.H.Data {
		lo := math.Min(st.HBar.Data[i], hPrev.Data[i])
		hi := math.Max(st.HBar.Data[i], hPrev.Data[i])
		if h < lo-1e-12 || h > hi+1e-12 {
			t.Fatalf("h[%d]=%g outside [%g,%g]", i, h, lo, hi)
		}
	}
}

// TestGRUGradientCheck is TestLSTMGradientCheck for the GRU: the batched
// dW fold reads the candidate rows against the cached r⊙hPrev panels.
func TestGRUGradientCheck(t *testing.T) {
	const batch, in, hid, steps = 2, 3, 4, 3
	r := rng.New(9)
	w := NewGRUWeights(in, hid)
	w.Init(r)
	xs := make([]*tensor.Matrix, steps)
	masks := make([]*tensor.Matrix, steps)
	for t0 := range xs {
		xs[t0], masks[t0] = randMat(r, batch, in), randMat(r, batch, hid)
	}

	states := make([]*GRUState, steps)
	hPrevs, rhs := make([]*tensor.Matrix, steps), make([]*tensor.Matrix, steps)
	hPrev := tensor.New(batch, hid)
	for t0 := range xs {
		states[t0] = NewGRUState(batch, in, hid)
		hPrevs[t0] = hPrev
		gruStep(w, xs[t0], hPrev, states[t0])
		hPrev, rhs[t0] = states[t0].H, states[t0].RH
	}
	grads := NewGRUGrads(w)
	panels, dXs := chainGrads(w.W, in, gruGates*hid, masks, func(t0 int, dH, panel *tensor.Matrix) *tensor.Matrix {
		dHPrev := tensor.New(batch, hid)
		GRUBackwardPre(w, states[t0], hPrevs[t0], dH, panel, nil, dHPrev, grads)
		return dHPrev
	})
	GRUDWBatch(w, grads, panels, xs, hPrevs, rhs, tensor.New(gruGates*hid, steps*batch), tensor.New(max(in, hid), steps*batch))

	loss := func() float64 { return gruChainLoss(w, xs, masks, batch) }
	checkFD(t, "dW", w.W.Data, grads.DW.Data, loss)
	checkFD(t, "dB", w.B, grads.DB, loss)
	for t0 := range xs {
		checkFD(t, "dX", xs[t0].Data, dXs[t0].Data, loss)
	}
}

func TestGRUParamCountMatchesPaper(t *testing.T) {
	// 6-layer BGRU, input 256, hidden 256, sum merge: paper reports 4.7M.
	w := NewGRUWeights(256, 256)
	per := 3*256*512 + 3*256
	if w.ParamCount() != per {
		t.Fatalf("ParamCount %d want %d", w.ParamCount(), per)
	}
	total := 6 * 2 * per
	if total != 4727808 { // 4.7M
		t.Fatalf("6-layer BGRU params %d, want 4727808", total)
	}
}

func TestGRUDeterministic(t *testing.T) {
	r := rng.New(4)
	w := NewGRUWeights(3, 3)
	w.Init(r)
	x := tensor.New(2, 3)
	r.FillUniform(x.Data, -1, 1)
	h0 := tensor.New(2, 3)
	s1, s2 := NewGRUState(2, 3, 3), NewGRUState(2, 3, 3)
	gruStep(w, x, h0, s1)
	gruStep(w, x, h0, s2)
	if !s1.H.Equal(s2.H) {
		t.Fatal("forward must be deterministic")
	}
}

func TestNewGRUWeightsPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGRUWeights(3, -1)
}
