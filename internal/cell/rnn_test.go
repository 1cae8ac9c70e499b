package cell

import (
	"math"
	"testing"

	"bpar/internal/rng"
	"bpar/internal/tensor"
)

// rnnChainLoss runs a chain and returns the masked hidden sum.
func rnnChainLoss(w *RNNWeights, xs, masks []*tensor.Matrix, batch int) float64 {
	hPrev := tensor.New(batch, w.HiddenSize)
	loss := 0.0
	for t := range xs {
		st := NewRNNStateOf[float64](batch, w.InputSize, w.HiddenSize)
		rnnStep(w, xs[t], hPrev, st)
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
	rnnStep(w, x, tensor.New(4, 5), st)
	for _, v := range st.H.Data {
		if math.Abs(v) >= 1 || math.IsNaN(v) {
			t.Fatalf("H out of range: %g", v)
		}
	}
}

// TestRNNGradientCheck is TestLSTMGradientCheck for the Elman cell.
func TestRNNGradientCheck(t *testing.T) {
	const batch, in, hid, steps = 2, 3, 4, 3
	r := rng.New(5)
	w := NewRNNWeights(in, hid)
	w.Init(r)
	xs := make([]*tensor.Matrix, steps)
	masks := make([]*tensor.Matrix, steps)
	for t0 := range xs {
		xs[t0], masks[t0] = randMat(r, batch, in), randMat(r, batch, hid)
	}

	states := make([]*RNNState, steps)
	hPrevs := make([]*tensor.Matrix, steps)
	hPrev := tensor.New(batch, hid)
	for t0 := range xs {
		states[t0] = NewRNNStateOf[float64](batch, in, hid)
		hPrevs[t0] = hPrev
		rnnStep(w, xs[t0], hPrev, states[t0])
		hPrev = states[t0].H
	}
	grads := NewRNNGrads(w)
	panels, dXs := chainGrads(w.W, in, hid, masks, func(t0 int, dH, panel *tensor.Matrix) *tensor.Matrix {
		dHPrev := tensor.New(batch, hid)
		RNNBackwardPre(w, states[t0], hPrevs[t0], dH, panel, dHPrev)
		return dHPrev
	})
	RNNDWBatch(w, grads, panels, xs, hPrevs, tensor.New(hid, steps*batch), tensor.New(max(in, hid), steps*batch))

	loss := func() float64 { return rnnChainLoss(w, xs, masks, batch) }
	checkFD(t, "dW", w.W.Data, grads.DW.Data, loss)
	checkFD(t, "dB", w.B, grads.DB, loss)
	for t0 := range xs {
		checkFD(t, "dX", xs[t0].Data, dXs[t0].Data, loss)
	}
}

func TestRNNParamCount(t *testing.T) {
	w := NewRNNWeights(256, 256)
	if w.ParamCount() != 256*512+256 {
		t.Fatalf("ParamCount %d", w.ParamCount())
	}
}

// TestRNNCheaperThanGRU: a vanilla RNN task touches fewer bytes than a GRU
// task, and a GRU task fewer than an LSTM task, at the same dims.
func TestRNNCheaperThanGRU(t *testing.T) {
	r, g, l := RNNWorkingSetBytes(128, 256, 256), GRUWorkingSetBytes(128, 256, 256), LSTMWorkingSetBytes(128, 256, 256)
	if r <= 0 || r >= g || g >= l {
		t.Fatalf("working sets RNN %d, GRU %d, LSTM %d: want 0 < RNN < GRU < LSTM", r, g, l)
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
