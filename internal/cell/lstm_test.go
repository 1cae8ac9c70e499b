package cell

import (
	"math"
	"testing"

	"bpar/internal/rng"
	"bpar/internal/tensor"
)

// lstmChainLoss runs an LSTM chain with the given weights and inputs and
// returns loss = Σ_t Σ_ij mask_t[ij] * H_t[ij]. Used as the scalar function
// for numeric gradient checking.
func lstmChainLoss(w *LSTMWeights, xs []*tensor.Matrix, masks []*tensor.Matrix, batch int) float64 {
	H := w.HiddenSize
	hPrev := tensor.New(batch, H)
	cPrev := tensor.New(batch, H)
	loss := 0.0
	for t := range xs {
		st := NewLSTMState(batch, w.InputSize, H)
		lstmStep(w, xs[t], hPrev, cPrev, st)
		for i, v := range st.H.Data {
			loss += masks[t].Data[i] * v
		}
		hPrev, cPrev = st.H, st.C
	}
	return loss
}

func TestLSTMForwardShapesAndRange(t *testing.T) {
	r := rng.New(1)
	w := NewLSTMWeights(3, 5)
	w.Init(r)
	batch := 4
	x := tensor.New(batch, 3)
	r.FillUniform(x.Data, -1, 1)
	hPrev := tensor.New(batch, 5)
	cPrev := tensor.New(batch, 5)
	st := NewLSTMState(batch, 3, 5)
	lstmStep(w, x, hPrev, cPrev, st)
	for _, v := range st.H.Data {
		if v <= -1 || v >= 1 || math.IsNaN(v) {
			t.Fatalf("H out of (-1,1): %g", v)
		}
	}
	// Gate cache must be post-activation: f,i,o in (0,1), g in (-1,1).
	Hd := 5
	for rI := 0; rI < batch; rI++ {
		row := st.Gates.Row(rI)
		for j := 0; j < Hd; j++ {
			for _, g := range []float64{row[lstmGateF*Hd+j], row[lstmGateI*Hd+j], row[lstmGateO*Hd+j]} {
				if g <= 0 || g >= 1 {
					t.Fatalf("sigmoid gate out of range: %g", g)
				}
			}
			if gg := row[lstmGateG*Hd+j]; gg <= -1 || gg >= 1 {
				t.Fatalf("tanh gate out of range: %g", gg)
			}
		}
	}
}

func TestLSTMZeroStateFirstStep(t *testing.T) {
	// With hPrev = cPrev = 0 the cell must still be well-defined and
	// c = i ⊙ g exactly (forget path contributes nothing).
	r := rng.New(2)
	w := NewLSTMWeights(2, 3)
	w.Init(r)
	x := tensor.New(1, 2)
	r.FillUniform(x.Data, -1, 1)
	st := NewLSTMState(1, 2, 3)
	lstmStep(w, x, tensor.New(1, 3), tensor.New(1, 3), st)
	row := st.Gates.Row(0)
	for j := 0; j < 3; j++ {
		want := row[lstmGateI*3+j] * row[lstmGateG*3+j]
		if math.Abs(st.C.At(0, j)-want) > 1e-14 {
			t.Fatalf("c != i*g at t=0: %g vs %g", st.C.At(0, j), want)
		}
	}
}

func TestLSTMForwardDeterministic(t *testing.T) {
	r := rng.New(3)
	w := NewLSTMWeights(4, 4)
	w.Init(r)
	x := tensor.New(2, 4)
	r.FillUniform(x.Data, -1, 1)
	h0, c0 := tensor.New(2, 4), tensor.New(2, 4)
	s1 := NewLSTMState(2, 4, 4)
	s2 := NewLSTMState(2, 4, 4)
	lstmStep(w, x, h0, c0, s1)
	lstmStep(w, x, h0, c0, s2)
	if !s1.H.Equal(s2.H) || !s1.C.Equal(s2.C) {
		t.Fatal("forward must be bitwise deterministic")
	}
}

// TestLSTMGradientCheck runs a chain through the engine's split kernels —
// projection and chain forward; chain backward emitting gate-gradient panels,
// then the batched dW/dB fold and the dx fold — and checks every element of
// dW, dB and every dX against central differences of the chain's loss.
func TestLSTMGradientCheck(t *testing.T) {
	const batch, in, hid, steps = 2, 3, 4, 3
	r := rng.New(7)
	w := NewLSTMWeights(in, hid)
	w.Init(r)
	xs := make([]*tensor.Matrix, steps)
	masks := make([]*tensor.Matrix, steps)
	for t0 := range xs {
		xs[t0], masks[t0] = randMat(r, batch, in), randMat(r, batch, hid)
	}

	states := make([]*LSTMState, steps)
	hPrevs, cPrevs := make([]*tensor.Matrix, steps), make([]*tensor.Matrix, steps)
	hPrev, cPrev := tensor.New(batch, hid), tensor.New(batch, hid)
	for t0 := range xs {
		states[t0] = NewLSTMState(batch, in, hid)
		hPrevs[t0], cPrevs[t0] = hPrev, cPrev
		lstmStep(w, xs[t0], hPrev, cPrev, states[t0])
		hPrev, cPrev = states[t0].H, states[t0].C
	}
	grads := NewLSTMGrads(w)
	var dC *tensor.Matrix // nil at the chain's last cell
	panels, dXs := chainGrads(w.W, in, lstmGates*hid, masks, func(t0 int, dH, panel *tensor.Matrix) *tensor.Matrix {
		dHPrev, dCPrev := tensor.New(batch, hid), tensor.New(batch, hid)
		LSTMBackwardPre(w, states[t0], hPrevs[t0], cPrevs[t0], dH, dC, panel, nil, dHPrev, dCPrev, grads)
		dC = dCPrev
		return dHPrev
	})
	LSTMDWBatch(w, grads, panels, xs, hPrevs, tensor.New(lstmGates*hid, steps*batch), tensor.New(max(in, hid), steps*batch))

	loss := func() float64 { return lstmChainLoss(w, xs, masks, batch) }
	checkFD(t, "dW", w.W.Data, grads.DW.Data, loss)
	checkFD(t, "dB", w.B, grads.DB, loss)
	for t0 := range xs {
		checkFD(t, "dX", xs[t0].Data, dXs[t0].Data, loss)
	}
}

func TestLSTMParamCountMatchesPaper(t *testing.T) {
	// 6-layer BLSTM, input 256, hidden 256, sum merge: paper reports 6.3M.
	// Per direction per layer with in=256: 4*256*(512)+4*256 = 525,312.
	w := NewLSTMWeights(256, 256)
	if w.ParamCount() != 4*256*512+4*256 {
		t.Fatalf("ParamCount %d", w.ParamCount())
	}
	total := 6 * 2 * w.ParamCount()
	if total != 6303744 { // 6.3M
		t.Fatalf("6-layer BLSTM params %d, want 6303744", total)
	}
}

func TestLSTMInitForgetBias(t *testing.T) {
	w := NewLSTMWeights(4, 3)
	w.Init(rng.New(5))
	for j := 0; j < 3; j++ {
		if w.B[lstmGateF*3+j] != 1 {
			t.Fatal("forget bias must init to 1")
		}
	}
	for j := 0; j < 3; j++ {
		if w.B[lstmGateI*3+j] != 0 || w.B[lstmGateO*3+j] != 0 {
			t.Fatal("other biases must init to 0")
		}
	}
}

func TestLSTMWorkingSetNearPaper(t *testing.T) {
	// Paper: batch 128, input 64, hidden 512 → ~4.71 MB per LSTM task.
	ws := LSTMWorkingSetBytes(128, 64, 512)
	mb := float64(ws) / (1 << 20)
	if mb < 3 || mb > 15 {
		t.Fatalf("working set estimate %f MB implausible vs paper's 4.71 MB scale", mb)
	}
}

func TestNewLSTMWeightsPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLSTMWeights(0, 4)
}
