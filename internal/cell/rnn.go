package cell

import (
	"fmt"

	"bpar/internal/rng"
	"bpar/internal/tensor"
)

// RNNWeightsOf holds one direction of one layer's vanilla (Elman) RNN
// parameters at element type E: the paper's "basic RNN unit", of which LSTM
// and GRU are the gated variants. W is [H x (In+H)] over the concatenation
// [X_t, H_{t-1}]; B is the bias.
type RNNWeightsOf[E tensor.Elt] struct {
	InputSize, HiddenSize int
	W                     *tensor.Mat[E]
	B                     []E
}

// RNNWeights is the float64 weights — the training and checkpoint dtype.
type RNNWeights = RNNWeightsOf[float64]

// NewRNNWeights allocates zeroed float64 weights.
func NewRNNWeights(inputSize, hiddenSize int) *RNNWeights {
	if inputSize <= 0 || hiddenSize <= 0 {
		panic(fmt.Sprintf("cell: invalid RNN dims in=%d hidden=%d", inputSize, hiddenSize))
	}
	return &RNNWeights{
		InputSize:  inputSize,
		HiddenSize: hiddenSize,
		W:          tensor.New(hiddenSize, inputSize+hiddenSize),
		B:          make([]float64, hiddenSize),
	}
}

// Init fills the weights with scaled uniform values (Xavier/Glorot).
func (w *RNNWeightsOf[E]) Init(r *rng.RNG) {
	fillUniform(r, w.W.Data, w.InputSize+w.HiddenSize)
	clear(w.B)
}

// ParamCount returns the number of trainable parameters.
func (w *RNNWeightsOf[E]) ParamCount() int { return len(w.W.Data) + len(w.B) }

// RNNStateOf caches one cell update: its output.
type RNNStateOf[E tensor.Elt] struct {
	// H is tanh(W*[X_t, H_{t-1}] + B), shape [batch x H].
	H *tensor.Mat[E]
}

// RNNState is the float64 state.
type RNNState = RNNStateOf[float64]

// NewRNNStateOf allocates the per-cell buffers at element type E; the input
// width shapes none of them.
func NewRNNStateOf[E tensor.Elt](batch, _, hiddenSize int) *RNNStateOf[E] {
	return &RNNStateOf[E]{H: tensor.NewOf[E](batch, hiddenSize)}
}

// RNNGrads accumulates weight gradients for one direction of one layer.
type RNNGrads struct {
	DW *tensor.Matrix
	DB []float64
}

// NewRNNGrads allocates zeroed gradients matching w.
func NewRNNGrads(w *RNNWeights) *RNNGrads {
	return &RNNGrads{DW: tensor.New(w.W.Rows, w.W.Cols), DB: make([]float64, len(w.B))}
}

// RNNWorkingSetBytes estimates the bytes one cell task touches.
func RNNWorkingSetBytes(batch, inputSize, hiddenSize int) int64 {
	weights := int64(hiddenSize*(inputSize+hiddenSize)+hiddenSize) * 8
	acts := int64(batch*(inputSize+hiddenSize)+batch*hiddenSize) * 8
	return weights + acts
}
