package cell

import (
	"math"
	"testing"

	"bpar/internal/rng"
	"bpar/internal/tensor"
)

// rnnChainLoss runs a two-step chain and returns the masked hidden sum.
func rnnChainLoss(w *RNNWeights, xs, masks []*tensor.Matrix, batch int) float64 {
	hPrev := tensor.New(batch, w.HiddenSize)
	loss := 0.0
	for t := range xs {
		st := NewRNNStateOf[float64](batch, w.InputSize, w.HiddenSize)
		RNNForward(w, xs[t], hPrev, st)
		for i, v := range st.H.Data {
			loss += masks[t].Data[i] * v
		}
		hPrev = st.H
	}
	return loss
}

func TestRNNForwardRange(t *testing.T) {
	r := rng.New(1)
	w := NewRNNWeights(3, 5)
	w.Init(r)
	x := tensor.New(4, 3)
	r.FillUniform(x.Data, -1, 1)
	st := NewRNNStateOf[float64](4, 3, 5)
	RNNForward(w, x, tensor.New(4, 5), st)
	for _, v := range st.H.Data {
		if math.Abs(v) >= 1 || math.IsNaN(v) {
			t.Fatalf("H out of range: %g", v)
		}
	}
}

func TestRNNGradientCheck(t *testing.T) {
	const (
		batch = 2
		in    = 3
		hid   = 4
		steps = 2
		h     = 1e-6
		tol   = 1e-5
	)
	r := rng.New(5)
	w := NewRNNWeights(in, hid)
	w.Init(r)
	xs := make([]*tensor.Matrix, steps)
	masks := make([]*tensor.Matrix, steps)
	for t0 := range xs {
		xs[t0] = tensor.New(batch, in)
		r.FillUniform(xs[t0].Data, -1, 1)
		masks[t0] = tensor.New(batch, hid)
		r.FillUniform(masks[t0].Data, -1, 1)
	}

	grads := NewRNNGrads(w)
	hPrev := tensor.New(batch, hid)
	states := make([]*RNNState, steps)
	for t0 := 0; t0 < steps; t0++ {
		states[t0] = NewRNNStateOf[float64](batch, in, hid)
		RNNForward(w, xs[t0], hPrev, states[t0])
		hPrev = states[t0].H
	}
	dXs := make([]*tensor.Matrix, steps)
	dH := tensor.New(batch, hid)
	dHPrev := tensor.New(batch, hid)
	for t0 := steps - 1; t0 >= 0; t0-- {
		for i := range dH.Data {
			dH.Data[i] = masks[t0].Data[i]
		}
		if t0 < steps-1 {
			tensor.AddAcc(dH, dHPrev)
		}
		dXs[t0] = tensor.New(batch, in)
		newDHPrev := tensor.New(batch, hid)
		RNNBackward(w, states[t0], dH, dXs[t0], newDHPrev, grads)
		dHPrev = newDHPrev
	}

	for _, idx := range []int{0, 7, len(w.W.Data) - 1} {
		orig := w.W.Data[idx]
		w.W.Data[idx] = orig + h
		lp := rnnChainLoss(w, xs, masks, batch)
		w.W.Data[idx] = orig - h
		lm := rnnChainLoss(w, xs, masks, batch)
		w.W.Data[idx] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-grads.DW.Data[idx]) > tol {
			t.Fatalf("dW[%d]: analytic %g numeric %g", idx, grads.DW.Data[idx], num)
		}
	}
	for _, idx := range []int{0, hid - 1} {
		orig := w.B[idx]
		w.B[idx] = orig + h
		lp := rnnChainLoss(w, xs, masks, batch)
		w.B[idx] = orig - h
		lm := rnnChainLoss(w, xs, masks, batch)
		w.B[idx] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-grads.DB[idx]) > tol {
			t.Fatalf("dB[%d]: analytic %g numeric %g", idx, grads.DB[idx], num)
		}
	}
	for _, idx := range []int{0, batch*in - 1} {
		orig := xs[0].Data[idx]
		xs[0].Data[idx] = orig + h
		lp := rnnChainLoss(w, xs, masks, batch)
		xs[0].Data[idx] = orig - h
		lm := rnnChainLoss(w, xs, masks, batch)
		xs[0].Data[idx] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-dXs[0].Data[idx]) > tol {
			t.Fatalf("dX0[%d]: analytic %g numeric %g", idx, dXs[0].Data[idx], num)
		}
	}
}

func TestRNNParamCount(t *testing.T) {
	w := NewRNNWeights(256, 256)
	if w.ParamCount() != 256*512+256 {
		t.Fatalf("ParamCount %d", w.ParamCount())
	}
}

func TestRNNCheaperThanGRU(t *testing.T) {
	if RNNForwardFlops(128, 256, 256) >= GRUForwardFlops(128, 256, 256) {
		t.Fatal("vanilla RNN must be cheaper than GRU")
	}
	if RNNBackwardFlops(128, 256, 256) <= RNNForwardFlops(128, 256, 256) {
		t.Fatal("backward must cost more than forward")
	}
	if RNNWorkingSetBytes(128, 256, 256) <= 0 {
		t.Fatal("working set must be positive")
	}
	if NewRNNStateOf[float64](2, 3, 4).WorkingSetBytes() <= 0 {
		t.Fatal("state working set must be positive")
	}
}

func TestRNNGradsZero(t *testing.T) {
	g := NewRNNGrads(NewRNNWeights(2, 2))
	g.DW.Fill(1)
	g.DB[0] = 2
	g.Zero()
	if !g.DW.Equal(tensor.New(g.DW.Rows, g.DW.Cols)) || g.DB[0] != 0 {
		t.Fatal("Zero failed")
	}
}

func TestNewRNNWeightsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNNWeights(-1, 2)
}
