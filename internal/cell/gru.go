package cell

import (
	"fmt"

	"bpar/internal/rng"
	"bpar/internal/tensor"
)

// Gate row order inside the fused GRU weight matrix: update (z), reset (r),
// candidate (h-bar) — matching Equations 7-9.
const (
	gruGateZ = 0
	gruGateR = 1
	gruGateH = 2
	gruGates = 3
)

// GRUWeightsOf holds one direction of one layer's GRU parameters at element
// type E. W is [3H x (In+H)]: the z and r blocks multiply [X_t, H_{t-1}]
// (Equations 7-8) while the h-bar block multiplies [X_t, R_t ⊙ H_{t-1}]
// (Equation 9). B is the fused bias.
type GRUWeightsOf[E tensor.Elt] struct {
	InputSize, HiddenSize int
	W                     *tensor.Mat[E]
	B                     []E

	// Row views of W, built with it: the [2H x (In+H)] z/r block and the
	// [H x (In+H)] candidate block. Hot cell calls stay alloc-free, and the
	// mini-batch workspaces that read one set of weights at once never write
	// the struct.
	zrView, hView *tensor.Mat[E]
}

// GRUWeights is the float64 weights — the training and checkpoint dtype.
type GRUWeights = GRUWeightsOf[float64]

// newGRUWeightsOf wraps W [3H x (In+H)] and B with W's gate row views.
func newGRUWeightsOf[E tensor.Elt](in, h int, w *tensor.Mat[E], b []E) *GRUWeightsOf[E] {
	return &GRUWeightsOf[E]{
		InputSize: in, HiddenSize: h, W: w, B: b,
		zrView: &tensor.Mat[E]{Rows: 2 * h, Cols: in + h, Data: w.Data[:2*h*(in+h)]},
		hView:  &tensor.Mat[E]{Rows: h, Cols: in + h, Data: w.Data[2*h*(in+h):]},
	}
}

// NewGRUWeights allocates zeroed float64 weights.
func NewGRUWeights(inputSize, hiddenSize int) *GRUWeights {
	if inputSize <= 0 || hiddenSize <= 0 {
		panic(fmt.Sprintf("cell: invalid GRU dims in=%d hidden=%d", inputSize, hiddenSize))
	}
	return newGRUWeightsOf(inputSize, hiddenSize,
		tensor.New(gruGates*hiddenSize, inputSize+hiddenSize), make([]float64, gruGates*hiddenSize))
}

// Init fills the weights with scaled uniform values (Xavier/Glorot).
func (w *GRUWeightsOf[E]) Init(r *rng.RNG) {
	fanIn := float64(w.InputSize + w.HiddenSize)
	scale := 1.0 / mathSqrt(fanIn)
	fillUniform(r, w.W.Data, scale)
	for i := range w.B {
		w.B[i] = 0
	}
}

// ParamCount returns the number of trainable parameters.
func (w *GRUWeightsOf[E]) ParamCount() int { return len(w.W.Data) + len(w.B) }

// GRUStateOf caches the forward quantities the backward pass needs.
type GRUStateOf[E tensor.Elt] struct {
	// Z1 is [X_t, H_{t-1}], shape [batch x (In+H)].
	Z1 *tensor.Mat[E]
	// Z2 is [X_t, R_t ⊙ H_{t-1}], shape [batch x (In+H)].
	Z2 *tensor.Mat[E]
	// ZR holds post-activation z and r blocks, shape [batch x 2H].
	ZR *tensor.Mat[E]
	// HBar is the candidate state tanh(...) of Equation 9, [batch x H].
	HBar *tensor.Mat[E]
	// H is the output H_t of Equation 10, [batch x H].
	H *tensor.Mat[E]
	// RH caches R_t ⊙ H_{t-1} on the split path, where Z2 is never
	// materialized; the backward candidate GEMM runs against it directly.
	RH *tensor.Mat[E]
}

// GRUState is the float64 state.
type GRUState = GRUStateOf[float64]

// NewGRUState allocates the per-cell float64 activation buffers for a batch.
func NewGRUState(batch, inputSize, hiddenSize int) *GRUState {
	return NewGRUStateOf[float64](batch, inputSize, hiddenSize)
}

// NewGRUStateOf allocates the per-cell activation buffers at element type E.
func NewGRUStateOf[E tensor.Elt](batch, inputSize, hiddenSize int) *GRUStateOf[E] {
	return &GRUStateOf[E]{
		Z1:   tensor.NewOf[E](batch, inputSize+hiddenSize),
		Z2:   tensor.NewOf[E](batch, inputSize+hiddenSize),
		ZR:   tensor.NewOf[E](batch, 2*hiddenSize),
		HBar: tensor.NewOf[E](batch, hiddenSize),
		H:    tensor.NewOf[E](batch, hiddenSize),
		RH:   tensor.NewOf[E](batch, hiddenSize),
	}
}

// WorkingSetBytes estimates the bytes this state's allocations occupy.
func (s *GRUStateOf[E]) WorkingSetBytes() int64 {
	n := int64(cap(s.Z1.Data) + cap(s.Z2.Data) + cap(s.ZR.Data) + cap(s.HBar.Data) + cap(s.H.Data))
	return int64(tensor.DTypeOf[E]().Size()) * n
}

// GRUForward computes Equations 7-10 for one cell and one mini-batch:
//
//	z = sigm(Wz*[x,hPrev]+bz)         r = sigm(Wr*[x,hPrev]+br)
//	hbar = tanh(Wh*[x, r⊙hPrev]+bh)   h = z ⊙ hbar + (1-z) ⊙ hPrev
func GRUForward[E tensor.Elt](w *GRUWeightsOf[E], x, hPrev *tensor.Mat[E], st *GRUStateOf[E]) {
	H := w.HiddenSize
	In := w.InputSize
	batch := x.Rows
	tensor.ConcatCols(st.Z1, x, hPrev)

	// z and r gates: first 2H rows of W against Z1.
	wZR := w.zrView
	tensor.MatMulT(st.ZR, st.Z1, wZR)
	tensor.AddBiasRows(st.ZR, w.B[:2*H])
	tensor.SigmoidInPlace(st.ZR)

	// Candidate input: [x, r ⊙ hPrev].
	for rI := 0; rI < batch; rI++ {
		z2 := st.Z2.Row(rI)
		copy(z2[:In], x.Row(rI))
		r := st.ZR.Row(rI)[gruGateR*H : (gruGateR+1)*H]
		hp := hPrev.Row(rI)
		for j := 0; j < H; j++ {
			z2[In+j] = r[j] * hp[j]
		}
	}
	wH := w.hView
	tensor.MatMulT(st.HBar, st.Z2, wH)
	tensor.AddBiasRows(st.HBar, w.B[2*H:])
	tensor.TanhInPlace(st.HBar)

	for rI := 0; rI < batch; rI++ {
		z := st.ZR.Row(rI)[gruGateZ*H : (gruGateZ+1)*H]
		hb := st.HBar.Row(rI)
		hp := hPrev.Row(rI)
		h := st.H.Row(rI)
		for j := 0; j < H; j++ {
			h[j] = z[j]*hb[j] + (1-z[j])*hp[j] // Equation 10
		}
	}
}

// GRUGrads accumulates weight gradients for one direction of one layer.
type GRUGrads struct {
	DW *tensor.Matrix
	DB []float64

	// Reusable backward scratch, lazily sized to the batch so a steady-state
	// training step performs no heap allocations. Safe because gradient
	// accumulation is serialized per (layer, direction) by the inout edge.
	dZR, dPreH, dRH, dZ1 *tensor.Matrix // fused path
	dRHh                 *tensor.Matrix // split path: grad of r⊙hPrev

	// Lazily built row views of DW, mirroring GRUWeights' zrView/hView.
	dzrView, dhView *tensor.Matrix
}

// viewDZR returns the [2H x (In+H)] z/r-gate row view of DW.
func (g *GRUGrads) viewDZR() *tensor.Matrix {
	if g.dzrView == nil {
		h := g.DW.Rows / gruGates
		g.dzrView = &tensor.Matrix{Rows: 2 * h, Cols: g.DW.Cols, Data: g.DW.Data[:2*h*g.DW.Cols]}
	}
	return g.dzrView
}

// viewDH returns the [H x (In+H)] candidate-gate row view of DW.
func (g *GRUGrads) viewDH() *tensor.Matrix {
	if g.dhView == nil {
		h := g.DW.Rows / gruGates
		g.dhView = &tensor.Matrix{Rows: h, Cols: g.DW.Cols, Data: g.DW.Data[2*h*g.DW.Cols:]}
	}
	return g.dhView
}

// ensureScratch (re)allocates the fused-path scratch when the batch changes.
func (g *GRUGrads) ensureScratch(batch int) {
	if g.dZR == nil || g.dZR.Rows != batch {
		h := g.DW.Rows / gruGates
		g.dZR = tensor.New(batch, 2*h)
		g.dPreH = tensor.New(batch, h)
		g.dRH = tensor.New(batch, g.DW.Cols)
		g.dZ1 = tensor.New(batch, g.DW.Cols)
	}
}

// ensureSplitScratch (re)allocates the split-path scratch.
func (g *GRUGrads) ensureSplitScratch(batch int) {
	if g.dRHh == nil || g.dRHh.Rows != batch {
		g.dRHh = tensor.New(batch, g.DW.Rows/gruGates)
	}
}

// NewGRUGrads allocates zeroed gradients matching w.
func NewGRUGrads(w *GRUWeights) *GRUGrads {
	return &GRUGrads{DW: tensor.New(w.W.Rows, w.W.Cols), DB: make([]float64, len(w.B))}
}

// Zero clears the accumulated gradients.
func (g *GRUGrads) Zero() {
	g.DW.Zero()
	for i := range g.DB {
		g.DB[i] = 0
	}
}

// GRUBackward computes one cell's backward contribution. dH is the incoming
// gradient w.r.t. H_t (summed over consumers). dX and dHPrev receive the
// gradients to the layer below and the t-1 cell; weight gradients accumulate
// into grads. hPrev is the t-1 hidden state used in the forward pass.
func GRUBackward(w *GRUWeights, st *GRUState, hPrev, dH, dX, dHPrev *tensor.Matrix, grads *GRUGrads) {
	H := w.HiddenSize
	In := w.InputSize
	batch := dH.Rows

	grads.ensureScratch(batch)
	dZR := grads.dZR     // pre-activation gate grads (z, r)
	dPreH := grads.dPreH // pre-activation candidate grad
	dRH := grads.dRH     // grad of [x, r⊙hPrev]
	dZ1 := grads.dZ1     // grad of [x, hPrev] via z,r gates
	dHPrev.Zero()

	// Candidate path first: dhbar = dh ⊙ z ; dPreH = dhbar ⊙ (1 - hbar²).
	for rI := 0; rI < batch; rI++ {
		z := st.ZR.Row(rI)[gruGateZ*H : (gruGateZ+1)*H]
		hb := st.HBar.Row(rI)
		dh := dH.Row(rI)
		dph := dPreH.Row(rI)
		for j := 0; j < H; j++ {
			dph[j] = dh[j] * z[j] * tensor.DTanhFromY(hb[j])
		}
	}
	wH := w.hView
	dWH := grads.viewDH()
	tensor.GemmATAcc(dWH, dPreH, st.Z2)
	for rI := 0; rI < batch; rI++ {
		row := dPreH.Row(rI)
		for j, v := range row {
			grads.DB[2*H+j] += v
		}
	}
	tensor.MatMul(dRH, dPreH, wH)

	// Gate gradients: dz = dh ⊙ (hbar - hPrev) ⊙ z(1-z);
	// dr = d(r⊙hPrev) ⊙ hPrev ⊙ r(1-r).
	for rI := 0; rI < batch; rI++ {
		zr := st.ZR.Row(rI)
		z := zr[gruGateZ*H : (gruGateZ+1)*H]
		r := zr[gruGateR*H : (gruGateR+1)*H]
		hb := st.HBar.Row(rI)
		hp := hPrev.Row(rI)
		dh := dH.Row(rI)
		dzr := dZR.Row(rI)
		drh := dRH.Row(rI)[In:]
		dhp := dHPrev.Row(rI)
		for j := 0; j < H; j++ {
			dzr[gruGateZ*H+j] = dh[j] * (hb[j] - hp[j]) * tensor.DSigmoidFromY(z[j])
			dzr[gruGateR*H+j] = drh[j] * hp[j] * tensor.DSigmoidFromY(r[j])
			// Direct hPrev contributions: through (1-z)⊙hPrev and r⊙hPrev.
			dhp[j] = dh[j]*(1-z[j]) + drh[j]*r[j]
		}
	}

	wZR := w.zrView
	dWZR := grads.viewDZR()
	tensor.GemmATAcc(dWZR, dZR, st.Z1)
	for rI := 0; rI < batch; rI++ {
		row := dZR.Row(rI)
		for j, v := range row {
			grads.DB[j] += v
		}
	}
	tensor.MatMul(dZ1, dZR, wZR)

	// dX = candidate-path x grad + gate-path x grad;
	// dHPrev += gate-path hPrev grad.
	for rI := 0; rI < batch; rI++ {
		dx := dX.Row(rI)
		drh := dRH.Row(rI)
		dz1 := dZ1.Row(rI)
		dhp := dHPrev.Row(rI)
		for j := 0; j < In; j++ {
			dx[j] = drh[j] + dz1[j]
		}
		for j := 0; j < H; j++ {
			dhp[j] += dz1[In+j]
		}
	}
}

// GRUForwardFlops estimates one forward cell update.
func GRUForwardFlops(batch, inputSize, hiddenSize int) float64 {
	gemm := 2.0 * float64(batch) * float64(inputSize+hiddenSize) * float64(gruGates*hiddenSize)
	elem := 10.0 * float64(batch) * float64(hiddenSize)
	return gemm + elem
}

// GRUBackwardFlops estimates one backward cell update.
func GRUBackwardFlops(batch, inputSize, hiddenSize int) float64 {
	gemm := 4.0 * float64(batch) * float64(inputSize+hiddenSize) * float64(gruGates*hiddenSize)
	elem := 18.0 * float64(batch) * float64(hiddenSize)
	return gemm + elem
}

// GRUWorkingSetBytes estimates the bytes one cell task touches.
func GRUWorkingSetBytes(batch, inputSize, hiddenSize int) int64 {
	weights := int64(gruGates*hiddenSize*(inputSize+hiddenSize)+gruGates*hiddenSize) * 8
	acts := int64(2*batch*(inputSize+hiddenSize)+batch*2*hiddenSize+2*batch*hiddenSize) * 8
	return weights + acts
}
