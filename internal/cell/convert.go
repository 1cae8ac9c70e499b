package cell

import "bpar/internal/tensor"

// Dtype conversion for inference weight mirrors. Training and checkpoints
// stay float64; the engine converts each direction's weights once at load (or
// after an update) into the inference dtype. The *Into variants refresh an
// existing mirror in place so pointers captured by replay templates and
// packed panels stay valid.

// ConvertLSTMWeights allocates a D-typed copy of src.
func ConvertLSTMWeights[D, S tensor.Elt](src *LSTMWeightsOf[S]) *LSTMWeightsOf[D] {
	dst := &LSTMWeightsOf[D]{
		InputSize:  src.InputSize,
		HiddenSize: src.HiddenSize,
		W:          tensor.NewOf[D](src.W.Rows, src.W.Cols),
		B:          make([]D, len(src.B)),
	}
	ConvertLSTMWeightsInto(dst, src)
	return dst
}

// ConvertLSTMWeightsInto refreshes dst from src in place.
func ConvertLSTMWeightsInto[D, S tensor.Elt](dst *LSTMWeightsOf[D], src *LSTMWeightsOf[S]) {
	tensor.ConvertInto(dst.W, src.W)
	tensor.ConvertSlice(dst.B, src.B)
}

// ConvertGRUWeights allocates a D-typed copy of src.
func ConvertGRUWeights[D, S tensor.Elt](src *GRUWeightsOf[S]) *GRUWeightsOf[D] {
	dst := newGRUWeightsOf(src.InputSize, src.HiddenSize, tensor.NewOf[D](src.W.Rows, src.W.Cols), make([]D, len(src.B)))
	ConvertGRUWeightsInto(dst, src)
	return dst
}

// ConvertGRUWeightsInto refreshes dst from src in place.
func ConvertGRUWeightsInto[D, S tensor.Elt](dst *GRUWeightsOf[D], src *GRUWeightsOf[S]) {
	tensor.ConvertInto(dst.W, src.W)
	tensor.ConvertSlice(dst.B, src.B)
}

// ConvertRNNWeights allocates a D-typed copy of src.
func ConvertRNNWeights[D, S tensor.Elt](src *RNNWeightsOf[S]) *RNNWeightsOf[D] {
	dst := &RNNWeightsOf[D]{
		InputSize:  src.InputSize,
		HiddenSize: src.HiddenSize,
		W:          tensor.NewOf[D](src.W.Rows, src.W.Cols),
		B:          make([]D, len(src.B)),
	}
	ConvertRNNWeightsInto(dst, src)
	return dst
}

// ConvertRNNWeightsInto refreshes dst from src in place.
func ConvertRNNWeightsInto[D, S tensor.Elt](dst *RNNWeightsOf[D], src *RNNWeightsOf[S]) {
	tensor.ConvertInto(dst.W, src.W)
	tensor.ConvertSlice(dst.B, src.B)
}
