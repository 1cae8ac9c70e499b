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
	fillUniform(r, w.W.Data, w.InputSize+w.HiddenSize)
	clear(w.B)
}

// ParamCount returns the number of trainable parameters.
func (w *GRUWeightsOf[E]) ParamCount() int { return len(w.W.Data) + len(w.B) }

// GRUStateOf caches the forward quantities the backward pass needs.
type GRUStateOf[E tensor.Elt] struct {
	// ZR holds post-activation z and r blocks, shape [batch x 2H].
	ZR *tensor.Mat[E]
	// HBar is the candidate state tanh(...) of Equation 9, [batch x H].
	HBar *tensor.Mat[E]
	// H is the output H_t of Equation 10, [batch x H].
	H *tensor.Mat[E]
	// RH caches R_t ⊙ H_{t-1}, the candidate GEMM's recurrent operand; the
	// backward candidate GEMMs run against it directly.
	RH *tensor.Mat[E]
}

// GRUState is the float64 state.
type GRUState = GRUStateOf[float64]

// NewGRUState allocates the per-cell float64 activation buffers for a batch.
func NewGRUState(batch, inputSize, hiddenSize int) *GRUState {
	return NewGRUStateOf[float64](batch, inputSize, hiddenSize)
}

// NewGRUStateOf allocates the per-cell activation buffers at element type E.
// Every buffer is a multiple of hiddenSize wide; the input width shapes none
// of them.
func NewGRUStateOf[E tensor.Elt](batch, _, hiddenSize int) *GRUStateOf[E] {
	return &GRUStateOf[E]{
		ZR:   tensor.NewOf[E](batch, 2*hiddenSize),
		HBar: tensor.NewOf[E](batch, hiddenSize),
		H:    tensor.NewOf[E](batch, hiddenSize),
		RH:   tensor.NewOf[E](batch, hiddenSize),
	}
}

// GRUGrads accumulates weight gradients for one direction of one layer.
type GRUGrads struct {
	DW *tensor.Matrix
	DB []float64

	// Reusable backward scratch — the grad of r⊙hPrev — lazily sized to the
	// batch so a steady-state training step performs no heap allocations.
	// Safe because gradient accumulation is serialized per (layer,
	// direction) by the inout edge.
	dRHh *tensor.Matrix

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

// ensureScratch (re)allocates the backward scratch when the batch changes.
func (g *GRUGrads) ensureScratch(batch int) {
	if g.dRHh == nil || g.dRHh.Rows != batch {
		g.dRHh = tensor.New(batch, g.DW.Rows/gruGates)
	}
}

// NewGRUGrads allocates zeroed gradients matching w.
func NewGRUGrads(w *GRUWeights) *GRUGrads {
	return &GRUGrads{DW: tensor.New(w.W.Rows, w.W.Cols), DB: make([]float64, len(w.B))}
}

// GRUWorkingSetBytes estimates the bytes one cell task touches.
func GRUWorkingSetBytes(batch, inputSize, hiddenSize int) int64 {
	weights := int64(gruGates*hiddenSize*(inputSize+hiddenSize)+gruGates*hiddenSize) * 8
	acts := int64(2*batch*(inputSize+hiddenSize)+batch*2*hiddenSize+2*batch*hiddenSize) * 8
	return weights + acts
}
