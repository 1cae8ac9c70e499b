// Package cell implements the LSTM and GRU cell mathematics of the paper's
// Equations 1-6 and 7-10. The gates of one cell share one weight matrix W
// over the concatenation [X_t, H_{t-1}] (four blocks for the LSTM, three for
// the GRU), and every kernel splits that product at the column boundary: an
// input projection off the recurrence, a recurrent remainder on it, and
// batched weight-gradient folds after it (split.go).
//
// Every function here is sequential. A B-Par task wraps one call, so the
// package also provides flop and working-set estimators that parameterize
// the task cost model — for the split tasks the engine runs and for the
// paper's one-task-per-cell shape the simulator records.
//
// Weights, states, and the forward kernels are generic over the tensor
// element type: training always runs the float64 instantiations (aliased to
// the historical names, bitwise-identical to the pre-generic code), while the
// float32 instantiations serve the opt-in inference dtype. The backward
// kernels and gradient accumulators are float64-only by design.
package cell

import (
	"fmt"

	"bpar/internal/rng"
	"bpar/internal/tensor"
)

// Gate row order inside the fused LSTM weight matrix: forget, input,
// candidate (c-bar), output — matching the order of Equations 1-4.
const (
	lstmGateF = 0
	lstmGateI = 1
	lstmGateG = 2
	lstmGateO = 3
	lstmGates = 4
)

// LSTMWeightsOf holds one direction of one layer's parameters at element
// type E. W is [4H x (In+H)] with gate blocks in f, i, g, o order; the column
// space is the concatenation [X_t, H_{t-1}] of Equations 1-4. B is the fused
// bias.
type LSTMWeightsOf[E tensor.Elt] struct {
	InputSize, HiddenSize int
	W                     *tensor.Mat[E]
	B                     []E
}

// LSTMWeights is the float64 weights — the training and checkpoint dtype.
type LSTMWeights = LSTMWeightsOf[float64]

// NewLSTMWeights allocates zeroed float64 weights.
func NewLSTMWeights(inputSize, hiddenSize int) *LSTMWeights {
	if inputSize <= 0 || hiddenSize <= 0 {
		panic(fmt.Sprintf("cell: invalid LSTM dims in=%d hidden=%d", inputSize, hiddenSize))
	}
	return &LSTMWeights{
		InputSize:  inputSize,
		HiddenSize: hiddenSize,
		W:          tensor.New(lstmGates*hiddenSize, inputSize+hiddenSize),
		B:          make([]float64, lstmGates*hiddenSize),
	}
}

// Init fills the weights with scaled uniform values (Xavier/Glorot) and sets
// the forget-gate bias to one, the standard trick that keeps early training
// stable.
func (w *LSTMWeightsOf[E]) Init(r *rng.RNG) {
	fillUniform(r, w.W.Data, w.InputSize+w.HiddenSize)
	clear(w.B)
	for j := 0; j < w.HiddenSize; j++ {
		w.B[lstmGateF*w.HiddenSize+j] = 1
	}
}

// ParamCount returns the number of trainable parameters in this direction of
// this layer.
func (w *LSTMWeightsOf[E]) ParamCount() int { return len(w.W.Data) + len(w.B) }

// LSTMStateOf caches everything one forward cell update produces that its
// backward counterpart needs: the post-activation gates, the cell state, its
// tanh, and the hidden output.
type LSTMStateOf[E tensor.Elt] struct {
	// Gates holds post-activation f,i,g,o blocks, shape [batch x 4H].
	Gates *tensor.Mat[E]
	// C is the cell state C_t; TanhC caches tanh(C_t); H is the output H_t.
	C, TanhC, H *tensor.Mat[E]
}

// LSTMState is the float64 state.
type LSTMState = LSTMStateOf[float64]

// NewLSTMState allocates the per-cell float64 activation buffers for a batch.
func NewLSTMState(batch, inputSize, hiddenSize int) *LSTMState {
	return NewLSTMStateOf[float64](batch, inputSize, hiddenSize)
}

// NewLSTMStateOf allocates the per-cell activation buffers at element type E.
// Every buffer is hiddenSize wide; the input width shapes none of them.
func NewLSTMStateOf[E tensor.Elt](batch, _, hiddenSize int) *LSTMStateOf[E] {
	return &LSTMStateOf[E]{
		Gates: tensor.NewOf[E](batch, lstmGates*hiddenSize),
		C:     tensor.NewOf[E](batch, hiddenSize),
		TanhC: tensor.NewOf[E](batch, hiddenSize),
		H:     tensor.NewOf[E](batch, hiddenSize),
	}
}

// lstmPointwise applies the gate activations of Equations 1-4 and the c/h
// update of Equations 5-6 to the pre-activation gate buffer:
//
//	f = sigm(.)   i = sigm(.)   g = tanh(.)   o = sigm(.)
//	c = f ⊙ cPrev + i ⊙ g       h = o ⊙ tanh(c)
func lstmPointwise[E tensor.Elt](w *LSTMWeightsOf[E], cPrev *tensor.Mat[E], st *LSTMStateOf[E]) {
	H := w.HiddenSize
	batch := st.Gates.Rows
	for r := 0; r < batch; r++ {
		row := st.Gates.Row(r)
		tensor.SigmoidSlice(row[lstmGateF*H : (lstmGateF+1)*H])
		tensor.SigmoidSlice(row[lstmGateI*H : (lstmGateI+1)*H])
		tensor.TanhSlice(row[lstmGateG*H : (lstmGateG+1)*H])
		tensor.SigmoidSlice(row[lstmGateO*H : (lstmGateO+1)*H])

		c := st.C.Row(r)
		tc := st.TanhC.Row(r)
		h := st.H.Row(r)
		cp := cPrev.Row(r)
		f := row[lstmGateF*H : (lstmGateF+1)*H]
		i := row[lstmGateI*H : (lstmGateI+1)*H]
		g := row[lstmGateG*H : (lstmGateG+1)*H]
		o := row[lstmGateO*H : (lstmGateO+1)*H]
		for j := 0; j < H; j++ {
			c[j] = f[j]*cp[j] + i[j]*g[j] // Equation 5
			tc[j] = tanhE(c[j])
			h[j] = o[j] * tc[j] // Equation 6
		}
	}
}

// LSTMGrads accumulates weight gradients for one direction of one layer.
// B-Par serializes accumulation with an inout dependency on the structure,
// so no internal locking is needed and the summation order is deterministic.
type LSTMGrads struct {
	DW *tensor.Matrix
	DB []float64
}

// NewLSTMGrads allocates zeroed gradients matching w.
func NewLSTMGrads(w *LSTMWeights) *LSTMGrads {
	return &LSTMGrads{
		DW: tensor.New(w.W.Rows, w.W.Cols),
		DB: make([]float64, len(w.B)),
	}
}

// lstmGateGrads computes the pre-activation gate gradients and dCPrev from
// the forward cache — the elementwise half of the backward cell. dH is the
// gradient w.r.t. H_t summed over its consumers; dC, the gradient w.r.t. C_t
// from the t+1 cell, may be nil at the chain's last cell.
func lstmGateGrads(w *LSTMWeights, st *LSTMState, cPrev, dH, dC, dGates, dCPrev *tensor.Matrix) {
	H := w.HiddenSize
	batch := dH.Rows
	for r := 0; r < batch; r++ {
		row := st.Gates.Row(r)
		f := row[lstmGateF*H : (lstmGateF+1)*H]
		i := row[lstmGateI*H : (lstmGateI+1)*H]
		g := row[lstmGateG*H : (lstmGateG+1)*H]
		o := row[lstmGateO*H : (lstmGateO+1)*H]
		tc := st.TanhC.Row(r)
		cp := cPrev.Row(r)
		dh := dH.Row(r)
		dg := dGates.Row(r)
		dcp := dCPrev.Row(r)
		var dcNext []float64
		if dC != nil {
			dcNext = dC.Row(r)
		}
		for j := 0; j < H; j++ {
			// dC_t = dH ⊙ o ⊙ (1 - tanh²(c)) + dC_{t+1 path}
			dc := dh[j] * o[j] * tensor.DTanhFromY(tc[j])
			if dcNext != nil {
				dc += dcNext[j]
			}
			dg[lstmGateF*H+j] = dc * cp[j] * tensor.DSigmoidFromY(f[j])
			dg[lstmGateI*H+j] = dc * g[j] * tensor.DSigmoidFromY(i[j])
			dg[lstmGateG*H+j] = dc * i[j] * tensor.DTanhFromY(g[j])
			dg[lstmGateO*H+j] = dh[j] * tc[j] * tensor.DSigmoidFromY(o[j])
			dcp[j] = dc * f[j]
		}
	}
}

// LSTMWorkingSetBytes estimates the bytes one cell task touches: weights,
// activations and caches. The paper reports 4.71 MB for batch 128, input 64,
// hidden 512.
func LSTMWorkingSetBytes(batch, inputSize, hiddenSize int) int64 {
	weights := int64(lstmGates*hiddenSize*(inputSize+hiddenSize)+lstmGates*hiddenSize) * 8
	acts := int64(batch*(inputSize+hiddenSize)+batch*lstmGates*hiddenSize+3*batch*hiddenSize) * 8
	return weights + acts
}
