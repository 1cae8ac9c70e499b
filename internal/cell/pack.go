package cell

import "bpar/internal/tensor"

// PackSet bundles the packed weight panels one direction of one layer needs
// on the split execution path. The input projection packs the [0, In) column
// window of the full fused matrix; the chain-resident recurrent GEMMs pack
// the [In, In+H) window — for the LSTM and RNN over all gate rows at once,
// for the GRU separately over the z/r and candidate row blocks because
// GRUForwardPre multiplies them by different operands (hPrev vs r⊙hPrev).
//
// Panels copy the weights; after a weight update call Repack. The engine
// caches one PackSet per (layer, direction) keyed on the model's weight
// version, so in steady-state inference the packing cost is paid once per
// model, not per sequence.
type PackSet[E tensor.Elt] struct {
	// X packs W[:, 0:In) — the off-chain input projection window.
	X *tensor.PackedPanel[E]
	// H packs W[:, In:In+H) for LSTM and RNN — the recurrent window.
	H *tensor.PackedPanel[E]
	// HZR and HH pack the recurrent window of the GRU's z/r row block and
	// candidate row block respectively; nil for LSTM and RNN (and vice versa).
	HZR, HH *tensor.PackedPanel[E]
}

// PackLSTM packs the split-path panels of one LSTM direction.
func PackLSTM[E tensor.Elt](w *LSTMWeightsOf[E]) *PackSet[E] {
	return &PackSet[E]{
		X: tensor.NewPackedPanel(w.W, 0, w.InputSize),
		H: tensor.NewPackedPanel(w.W, w.InputSize, w.HiddenSize),
	}
}

// PackGRU packs the split-path panels of one GRU direction.
func PackGRU[E tensor.Elt](w *GRUWeightsOf[E]) *PackSet[E] {
	return &PackSet[E]{
		X:   tensor.NewPackedPanel(w.W, 0, w.InputSize),
		HZR: tensor.NewPackedPanel(w.zrView, w.InputSize, w.HiddenSize),
		HH:  tensor.NewPackedPanel(w.hView, w.InputSize, w.HiddenSize),
	}
}

// PackRNN packs the split-path panels of one RNN direction.
func PackRNN[E tensor.Elt](w *RNNWeightsOf[E]) *PackSet[E] {
	return &PackSet[E]{
		X: tensor.NewPackedPanel(w.W, 0, w.InputSize),
		H: tensor.NewPackedPanel(w.W, w.InputSize, w.HiddenSize),
	}
}

// Repack refreshes every panel from the live weights, in place; pointers held
// by captured replay templates stay valid.
func (ps *PackSet[E]) Repack() {
	for _, pp := range []*tensor.PackedPanel[E]{ps.X, ps.H, ps.HZR, ps.HH} {
		if pp != nil {
			pp.Repack()
		}
	}
}

// --- Packed forward variants ---
//
// Each mirrors its unpacked counterpart exactly — same bias handling, same
// pointwise code — with the column-window GEMM swapped for its packed twin,
// which accumulates bitwise-identically per dtype.

// LSTMPreGatesPacked is LSTMPreGates reading the packed input panel.
func LSTMPreGatesPacked[E tensor.Elt](w *LSTMWeightsOf[E], x, pre *tensor.Mat[E], ps *PackSet[E]) {
	tensor.MatMulTColsPacked(pre, x, ps.X)
	tensor.AddBiasRows(pre, w.B)
}

// LSTMForwardPrePacked is LSTMForwardPre reading the packed recurrent panel.
func LSTMForwardPrePacked[E tensor.Elt](w *LSTMWeightsOf[E], pre, hPrev, cPrev *tensor.Mat[E], st *LSTMStateOf[E], ps *PackSet[E]) {
	st.Gates.CopyFrom(pre)
	tensor.GemmTAccColsPacked(st.Gates, hPrev, ps.H)
	lstmPointwise(w, cPrev, st)
}

// GRUPreGatesPacked is GRUPreGates reading the packed input panel.
func GRUPreGatesPacked[E tensor.Elt](w *GRUWeightsOf[E], x, pre *tensor.Mat[E], ps *PackSet[E]) {
	tensor.MatMulTColsPacked(pre, x, ps.X)
	tensor.AddBiasRows(pre, w.B)
}

// GRUForwardPrePacked is GRUForwardPre reading the packed recurrent panels.
func GRUForwardPrePacked[E tensor.Elt](w *GRUWeightsOf[E], pre, hPrev *tensor.Mat[E], st *GRUStateOf[E], ps *PackSet[E]) {
	gruForwardPre(w, pre, hPrev, st, ps)
}

// RNNForwardPrePacked is RNNForwardPre reading the packed recurrent panel.
func RNNForwardPrePacked[E tensor.Elt](w *RNNWeightsOf[E], pre, hPrev *tensor.Mat[E], st *RNNStateOf[E], ps *PackSet[E]) {
	st.H.CopyFrom(pre)
	tensor.GemmTAccColsPacked(st.H, hPrev, ps.H)
	tensor.TanhInPlace(st.H)
}
