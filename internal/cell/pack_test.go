package cell

import (
	"math"
	"testing"

	"bpar/internal/rng"
	"bpar/internal/tensor"
)

// f32CellTol is the acceptance band for a float32 cell forward against the
// float64 reference. Gate pre-activations are depth-(In+H) dots of unit-scale
// operands (absolute error ~(In+H)*eps32, see tensor.f32Tol); the saturating
// activations have slope <= 1 so the error passes through undiminished but
// not amplified within one step. 1e-4 bounds every shape below with an order
// of magnitude to spare.
const f32CellTol = 1e-4

func toF32(m *tensor.Matrix) *tensor.Mat[float32] { return tensor.ConvertedOf[float32](m) }

func matMaxDiff32(a *tensor.Matrix, b *tensor.Mat[float32]) float64 {
	d := 0.0
	for i := range a.Data {
		d = math.Max(d, math.Abs(a.Data[i]-float64(b.Data[i])))
	}
	return d
}

// TestPackedSplitForwardBitwise pins the packed split path to the unpacked
// one for the LSTM and the GRU at float64: packing is a pure layout change,
// so a T-step recurrence through the packed kernels must be bitwise-identical.
func TestPackedSplitForwardBitwise(t *testing.T) {
	const T, batch, in, h = 5, 2, 24, 16
	r := rng.New(3)
	t.Run("lstm", func(t *testing.T) {
		w := NewLSTMWeights(in, h)
		w.Init(r)
		ps := PackLSTM(w)
		hU, cU := tensor.New(batch, h), tensor.New(batch, h)
		hP, cP := tensor.New(batch, h), tensor.New(batch, h)
		for s := 0; s < T; s++ {
			x := randMat(r, batch, in)
			pre, preP := tensor.New(batch, lstmGates*h), tensor.New(batch, lstmGates*h)
			stU := NewLSTMState(batch, in, h)
			stP := NewLSTMState(batch, in, h)
			LSTMPreGates(w, x, pre)
			LSTMForwardPre(w, pre, hU, cU, stU)
			LSTMPreGatesPacked(w, x, preP, ps)
			LSTMForwardPrePacked(w, preP, hP, cP, stP, ps)
			if !preP.Equal(pre) || !stP.H.Equal(stU.H) || !stP.C.Equal(stU.C) {
				t.Fatalf("step %d: packed LSTM split forward not bitwise-identical", s)
			}
			hU, cU, hP, cP = stU.H, stU.C, stP.H, stP.C
		}
	})
	t.Run("gru", func(t *testing.T) {
		w := NewGRUWeights(in, h)
		w.Init(r)
		ps := PackGRU(w)
		hU, hP := tensor.New(batch, h), tensor.New(batch, h)
		for s := 0; s < T; s++ {
			x := randMat(r, batch, in)
			pre, preP := tensor.New(batch, gruGates*h), tensor.New(batch, gruGates*h)
			stU := NewGRUState(batch, in, h)
			stP := NewGRUState(batch, in, h)
			GRUPreGates(w, x, pre)
			GRUForwardPre(w, pre, hU, stU)
			GRUPreGatesPacked(w, x, preP, ps)
			GRUForwardPrePacked(w, preP, hP, stP, ps)
			if !preP.Equal(pre) || !stP.H.Equal(stU.H) {
				t.Fatalf("step %d: packed GRU split forward not bitwise-identical", s)
			}
			hU, hP = stU.H, stP.H
		}
	})
}

// TestF32ForwardWithinBand runs a T-step recurrence of each cell in float32
// (unpacked kernels, converted weights) against float64 and checks the
// hidden state stays inside the documented band.
func TestF32ForwardWithinBand(t *testing.T) {
	const T, batch, in, h = 6, 3, 24, 16
	r := rng.New(7)
	t.Run("lstm", func(t *testing.T) {
		w := NewLSTMWeights(in, h)
		w.Init(r)
		w32 := ConvertLSTMWeights[float32](w)
		h64, c64 := tensor.New(batch, h), tensor.New(batch, h)
		h32, c32 := tensor.NewOf[float32](batch, h), tensor.NewOf[float32](batch, h)
		for s := 0; s < T; s++ {
			x := randMat(r, batch, in)
			st := NewLSTMState(batch, in, h)
			st32 := NewLSTMStateOf[float32](batch, in, h)
			lstmStep(w, x, h64, c64, st)
			lstmStep(w32, toF32(x), h32, c32, st32)
			if d := matMaxDiff32(st.H, st32.H); d > f32CellTol {
				t.Fatalf("step %d: LSTM f32 H diverged by %g", s, d)
			}
			h64, c64, h32, c32 = st.H, st.C, st32.H, st32.C
		}
	})
	t.Run("gru", func(t *testing.T) {
		w := NewGRUWeights(in, h)
		w.Init(r)
		w32 := ConvertGRUWeights[float32](w)
		h64 := tensor.New(batch, h)
		h32 := tensor.NewOf[float32](batch, h)
		for s := 0; s < T; s++ {
			x := randMat(r, batch, in)
			st := NewGRUState(batch, in, h)
			st32 := NewGRUStateOf[float32](batch, in, h)
			gruStep(w, x, h64, st)
			gruStep(w32, toF32(x), h32, st32)
			if d := matMaxDiff32(st.H, st32.H); d > f32CellTol {
				t.Fatalf("step %d: GRU f32 H diverged by %g", s, d)
			}
			h64, h32 = st.H, st32.H
		}
	})
	t.Run("rnn", func(t *testing.T) {
		w := NewRNNWeights(in, h)
		w.Init(r)
		w32 := ConvertRNNWeights[float32](w)
		h64 := tensor.New(batch, h)
		h32 := tensor.NewOf[float32](batch, h)
		for s := 0; s < T; s++ {
			x := randMat(r, batch, in)
			st := NewRNNStateOf[float64](batch, in, h)
			st32 := NewRNNStateOf[float32](batch, in, h)
			rnnStep(w, x, h64, st)
			rnnStep(w32, toF32(x), h32, st32)
			if d := matMaxDiff32(st.H, st32.H); d > f32CellTol {
				t.Fatalf("step %d: RNN f32 H diverged by %g", s, d)
			}
			h64, h32 = st.H, st32.H
		}
	})
}

func TestConvertWeightsRoundTrip(t *testing.T) {
	r := rng.New(13)
	w := NewLSTMWeights(8, 6)
	w.Init(r)
	w32 := ConvertLSTMWeights[float32](w)
	back := ConvertLSTMWeights[float64](w32)
	for i, v := range w.W.Data {
		if back.W.Data[i] != float64(float32(v)) {
			t.Fatal("weight round trip differs from single rounding")
		}
	}
	for i, v := range w.B {
		if back.B[i] != float64(float32(v)) {
			t.Fatal("bias round trip differs from single rounding")
		}
	}
	if w32.InputSize != w.InputSize || w32.HiddenSize != w.HiddenSize {
		t.Fatal("converted weights lost their dimensions")
	}
}
