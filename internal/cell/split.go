// Split-weight execution, the one numeric path: the gate product Gates_t =
// W*[x_t, h_{t-1}] + B decomposes into an input projection x_t*Wx^T + B with no
// recurrence dependency and a recurrent half h_{t-1}*Wh^T that alone stays on
// the sequential chain. The *PreGates functions compute the projection ahead
// of time (batched across timesteps by the task graph); the *ForwardPre /
// *BackwardPre functions are the chain-resident remainders. Wx and Wh are
// column windows of the unchanged fused weight matrix, so the serialized
// layout and the public weight structs are untouched.
//
// The backward analog moves every gradient derivable from the panels off the
// chain too: the chain task only emits its pre-activation gate-gradient panel
// and dHPrev, and one batched task per (layer, direction) folds the whole
// sequence of panels into the weight and bias gradients afterwards. The
// batched task transposes the panel/input/state sequences into contiguous
// stacks (tensor.TransposeStackInto) so both weight-gradient halves run as
// dot-form GEMMs (tensor.GemmTAccDstCols) — register accumulation over the
// stacked K = seq·batch dimension instead of read-modify-writing the weight
// gradient once per timestep.
package cell

import "bpar/internal/tensor"

// --- LSTM ---

// LSTMPreGates computes the input projection pre = x*Wx^T + B for one
// timestep. pre is [batch x 4H]. No recurrence dependency.
func LSTMPreGates[E tensor.Elt](w *LSTMWeightsOf[E], x, pre *tensor.Mat[E]) {
	tensor.MatMulTCols(pre, x, w.W, 0)
	tensor.AddBiasRows(pre, w.B)
}

// LSTMForwardPre is the chain-resident forward remainder: Gates = pre +
// hPrev*Wh^T, then activations and the c/h update.
func LSTMForwardPre[E tensor.Elt](w *LSTMWeightsOf[E], pre, hPrev, cPrev *tensor.Mat[E], st *LSTMStateOf[E]) {
	st.Gates.CopyFrom(pre)
	tensor.GemmTAccCols(st.Gates, hPrev, w.W, w.InputSize)
	lstmPointwise(w, cPrev, st)
}

// LSTMBackwardPre is the chain-resident backward remainder. It computes the
// pre-activation gate gradients, into dGates (the caller's pooled panel),
// and dHPrev; the caller hoists everything derivable from the panels — dX,
// dW (both halves) and DB — into batched off-chain tasks. dX and grads are
// ignored: they stay in the signature only for bench/probes.go's call, and
// go with ROADMAP item 1(f).
func LSTMBackwardPre(w *LSTMWeights, st *LSTMState, hPrev, cPrev, dH, dC, dGates, dX, dHPrev, dCPrev *tensor.Matrix, grads *LSTMGrads) {
	lstmGateGrads(w, st, cPrev, dH, dC, dGates, dCPrev)
	tensor.MatMulCols(dHPrev, dGates, 0, lstmGates*w.HiddenSize, w.W, w.InputSize)
}

// LSTMDWBatch folds a whole sequence of deferred gate-gradient panels into
// the weight and bias gradients:
//
//	DW[:, :In)  += stack(panels)^T · stack(xs)
//	DW[:, In:)  += stack(panels)^T · stack(hPrevs)
//	DB          += Σ_t Σ_rows panels_t
//
// panels[t], xs[t] and hPrevs[t] are timestep t's gate-gradient panel, layer
// input and previous hidden state (the caller passes its zero matrix at the
// chain boundary). stackP ([4H x K]) and stackB ([max(In,H) x K], with
// K = len(panels)·batch) are caller-owned transposition scratch, so the
// kernel allocates nothing but two matrix headers. Both GEMMs accumulate in
// registers over the stacked K dimension; the summation order (t ascending,
// batch row ascending) is fixed, keeping parallel training bitwise
// deterministic.
func LSTMDWBatch(w *LSTMWeights, grads *LSTMGrads, panels, xs, hPrevs []*tensor.Matrix, stackP, stackB *tensor.Matrix) {
	dwBiasSum(grads.DB, panels)
	tensor.TransposeStackInto(stackP, panels)
	k := stackP.Cols
	xT := &tensor.Matrix{Rows: w.InputSize, Cols: k, Data: stackB.Data[:w.InputSize*k]}
	tensor.TransposeStackInto(xT, xs)
	tensor.GemmTAccDstCols(grads.DW, 0, stackP, xT)
	hT := &tensor.Matrix{Rows: w.HiddenSize, Cols: k, Data: stackB.Data[:w.HiddenSize*k]}
	tensor.TransposeStackInto(hT, hPrevs)
	tensor.GemmTAccDstCols(grads.DW, w.InputSize, stackP, hT)
}

// dwBiasSum adds every panel's row sums into db, t ascending then batch row
// ascending — the fixed order the determinism contract pins.
func dwBiasSum(db []float64, panels []*tensor.Matrix) {
	for _, p := range panels {
		for r := 0; r < p.Rows; r++ {
			for j, v := range p.Row(r) {
				db[j] += v
			}
		}
	}
}

// --- GRU ---

// GRUPreGates computes pre = x*Wx^T + B for all three gate blocks; the z/r
// and candidate windows are consumed separately by GRUForwardPre.
func GRUPreGates[E tensor.Elt](w *GRUWeightsOf[E], x, pre *tensor.Mat[E]) {
	tensor.MatMulTCols(pre, x, w.W, 0)
	tensor.AddBiasRows(pre, w.B)
}

// GRUForwardPre is the chain-resident forward remainder of Equations 7-10:
//
//	z = sigm(pre_z + Wz_h*hPrev)   r = sigm(pre_r + Wr_h*hPrev)
//	hbar = tanh(pre_h + Wh_h*(r⊙hPrev))   h = z ⊙ hbar + (1-z) ⊙ hPrev
//
// st.RH caches r⊙hPrev for the backward candidate GEMM.
func GRUForwardPre[E tensor.Elt](w *GRUWeightsOf[E], pre, hPrev *tensor.Mat[E], st *GRUStateOf[E]) {
	gruForwardPre(w, pre, hPrev, st, nil)
}

// gruForwardPre is the one body behind GRUForwardPre and GRUForwardPrePacked:
// with ps nil the two recurrent GEMMs read their column windows of w.W in
// place, otherwise the packed z/r and candidate panels.
func gruForwardPre[E tensor.Elt](w *GRUWeightsOf[E], pre, hPrev *tensor.Mat[E], st *GRUStateOf[E], ps *PackSet[E]) {
	H := w.HiddenSize
	In := w.InputSize
	batch := pre.Rows

	tensor.CopyColsInto(st.ZR, pre, 0)
	if ps != nil {
		tensor.GemmTAccColsPacked(st.ZR, hPrev, ps.HZR)
	} else {
		tensor.GemmTAccCols(st.ZR, hPrev, w.zrView, In)
	}
	tensor.SigmoidInPlace(st.ZR)

	for rI := 0; rI < batch; rI++ {
		r := st.ZR.Row(rI)[gruGateR*H : (gruGateR+1)*H]
		hp := hPrev.Row(rI)
		rh := st.RH.Row(rI)
		for j := 0; j < H; j++ {
			rh[j] = r[j] * hp[j]
		}
	}
	tensor.CopyColsInto(st.HBar, pre, 2*H)
	if ps != nil {
		tensor.GemmTAccColsPacked(st.HBar, st.RH, ps.HH)
	} else {
		tensor.GemmTAccCols(st.HBar, st.RH, w.hView, In)
	}
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

// GRUBackwardPre is the chain-resident backward remainder. dGates is the
// pooled [batch x 3H] panel in (z, r, hbar) pre-activation order — the same
// layout as the weight rows, so the batched dW tasks and the fused-bias
// accumulation index it directly. Only the gate gradients, dRHh (in grads'
// scratch) and dHPrev are computed here; dX, dW and DB are left to the
// caller's batched off-chain tasks. dX is ignored: it stays in the signature
// only for bench/probes.go's call, and goes with ROADMAP item 1(f).
func GRUBackwardPre(w *GRUWeights, st *GRUState, hPrev, dH, dGates, dX, dHPrev *tensor.Matrix, grads *GRUGrads) {
	H := w.HiddenSize
	In := w.InputSize
	batch := dH.Rows
	grads.ensureScratch(batch)
	dRHh := grads.dRHh // grad of r⊙hPrev through the candidate GEMM
	dHPrev.Zero()

	// Candidate path: dhbar = dh ⊙ z ; pre-activation grad into the panel.
	for rI := 0; rI < batch; rI++ {
		z := st.ZR.Row(rI)[gruGateZ*H : (gruGateZ+1)*H]
		hb := st.HBar.Row(rI)
		dh := dH.Row(rI)
		dg := dGates.Row(rI)
		for j := 0; j < H; j++ {
			dg[gruGateH*H+j] = dh[j] * z[j] * tensor.DTanhFromY(hb[j])
		}
	}
	tensor.MatMulCols(dRHh, dGates, gruGateH*H, gruGates*H, w.hView, In)

	// Gate gradients and the direct hPrev contributions.
	for rI := 0; rI < batch; rI++ {
		zr := st.ZR.Row(rI)
		z := zr[gruGateZ*H : (gruGateZ+1)*H]
		r := zr[gruGateR*H : (gruGateR+1)*H]
		hb := st.HBar.Row(rI)
		hp := hPrev.Row(rI)
		dh := dH.Row(rI)
		dg := dGates.Row(rI)
		drhh := dRHh.Row(rI)
		dhp := dHPrev.Row(rI)
		for j := 0; j < H; j++ {
			dg[gruGateZ*H+j] = dh[j] * (hb[j] - hp[j]) * tensor.DSigmoidFromY(z[j])
			dg[gruGateR*H+j] = drhh[j] * hp[j] * tensor.DSigmoidFromY(r[j])
			dhp[j] = dh[j]*(1-z[j]) + drhh[j]*r[j]
		}
	}
	// dHPrev += gate-path hPrev grad (candidate path went through RH above).
	tensor.GemmAccCols(dHPrev, dGates, 0, 2*H, w.zrView, In)
}

// GRUDWBatch is the GRU analog of LSTMDWBatch. The input half is one GEMM
// over the full [3H x K] panel stack, but the recurrent half splits by gate
// row block: the z/r rows multiplied hPrev in the forward pass while the
// candidate rows multiplied r⊙hPrev, so rhs[t] must carry timestep t's
// cached RH panel (GRUState.RH). stackB is reused for the x, hPrev and RH
// stacks in turn.
func GRUDWBatch(w *GRUWeights, grads *GRUGrads, panels, xs, hPrevs, rhs []*tensor.Matrix, stackP, stackB *tensor.Matrix) {
	H := w.HiddenSize
	In := w.InputSize
	dwBiasSum(grads.DB, panels)
	tensor.TransposeStackInto(stackP, panels)
	k := stackP.Cols
	xT := &tensor.Matrix{Rows: In, Cols: k, Data: stackB.Data[:In*k]}
	tensor.TransposeStackInto(xT, xs)
	tensor.GemmTAccDstCols(grads.DW, 0, stackP, xT)

	pZR := &tensor.Matrix{Rows: 2 * H, Cols: k, Data: stackP.Data[:2*H*k]}
	pH := &tensor.Matrix{Rows: H, Cols: k, Data: stackP.Data[2*H*k:]}
	hT := &tensor.Matrix{Rows: H, Cols: k, Data: stackB.Data[:H*k]}
	tensor.TransposeStackInto(hT, hPrevs)
	tensor.GemmTAccDstCols(grads.viewDZR(), In, pZR, hT)
	tensor.TransposeStackInto(hT, rhs)
	tensor.GemmTAccDstCols(grads.viewDH(), In, pH, hT)
}

// --- RNN ---

// RNNForwardPre is the chain-resident forward remainder: h = tanh(pre +
// hPrev*Wh^T).
func RNNForwardPre[E tensor.Elt](w *RNNWeightsOf[E], pre, hPrev *tensor.Mat[E], st *RNNStateOf[E]) {
	st.H.CopyFrom(pre)
	tensor.GemmTAccCols(st.H, hPrev, w.W, w.InputSize)
	tensor.TanhInPlace(st.H)
}

// rnnPreGrads computes the pre-activation gradient dPre = dH ⊙ (1 - H²).
func rnnPreGrads(st *RNNState, dH, dPre *tensor.Matrix) {
	batch := dH.Rows
	for r := 0; r < batch; r++ {
		h := st.H.Row(r)
		dh := dH.Row(r)
		dp := dPre.Row(r)
		for j := range dp {
			dp[j] = dh[j] * tensor.DTanhFromY(h[j])
		}
	}
}

// RNNBackwardPre is the chain-resident backward remainder: the
// pre-activation gradient into dPre (the caller's pooled panel) and dHPrev.
// dX, dW and DB are all left to the caller's batched off-chain tasks.
func RNNBackwardPre(w *RNNWeights, st *RNNState, hPrev, dH, dPre, dHPrev *tensor.Matrix) {
	rnnPreGrads(st, dH, dPre)
	tensor.MatMulCols(dHPrev, dPre, 0, w.HiddenSize, w.W, w.InputSize)
}

// RNNDWBatch is the RNN analog of LSTMDWBatch (one gate block, H wide).
func RNNDWBatch(w *RNNWeights, grads *RNNGrads, panels, xs, hPrevs []*tensor.Matrix, stackP, stackB *tensor.Matrix) {
	dwBiasSum(grads.DB, panels)
	tensor.TransposeStackInto(stackP, panels)
	k := stackP.Cols
	xT := &tensor.Matrix{Rows: w.InputSize, Cols: k, Data: stackB.Data[:w.InputSize*k]}
	tensor.TransposeStackInto(xT, xs)
	tensor.GemmTAccDstCols(grads.DW, 0, stackP, xT)
	hT := &tensor.Matrix{Rows: w.HiddenSize, Cols: k, Data: stackB.Data[:w.HiddenSize*k]}
	tensor.TransposeStackInto(hT, hPrevs)
	tensor.GemmTAccDstCols(grads.DW, w.InputSize, stackP, hT)
}

// ProjFlops estimates one timestep's input-projection flops for a gate panel
// gateWidth wide: the x*Wx^T GEMM plus the bias add.
func ProjFlops(batch, inputSize, gateWidth int) float64 {
	return 2.0*float64(batch)*float64(inputSize)*float64(gateWidth) + float64(batch)*float64(gateWidth)
}

// LSTMChainForwardFlops estimates the chain-resident part of a split forward
// cell update: the recurrent GEMM plus the elementwise work.
func LSTMChainForwardFlops(batch, hiddenSize int) float64 {
	gemm := 2.0 * float64(batch) * float64(hiddenSize) * float64(lstmGates*hiddenSize)
	return gemm + 12.0*float64(batch)*float64(hiddenSize)
}

// LSTMChainBackwardFlops estimates the chain-resident part of a split
// backward cell update in deferred-gradient mode: the dHPrev GEMM plus
// elementwise work (dX, dW and DB are all hoisted into batched tasks).
func LSTMChainBackwardFlops(batch, hiddenSize int) float64 {
	g := float64(lstmGates * hiddenSize)
	gemm := 2.0 * float64(batch) * g * float64(hiddenSize)
	return gemm + 20.0*float64(batch)*float64(hiddenSize)
}

// DXFlops estimates one timestep's hoisted input-gradient flops for a gate
// panel gateWidth wide: the dX += dGates*Wx GEMM.
func DXFlops(batch, inputSize, gateWidth int) float64 {
	return 2.0 * float64(batch) * float64(inputSize) * float64(gateWidth)
}

// DWFlops estimates the whole-sequence hoisted weight-gradient flops for a
// gate panel gateWidth wide: the stacked dW += dGates^T*[X, HPrev] GEMM over
// seq timesteps plus the bias reduction.
func DWFlops(seq, batch, inputSize, hiddenSize, gateWidth int) float64 {
	k := float64(seq) * float64(batch)
	return 2.0*k*float64(gateWidth)*float64(inputSize+hiddenSize) + k*float64(gateWidth)
}

// GRUChainForwardFlops estimates the chain-resident split GRU forward.
func GRUChainForwardFlops(batch, hiddenSize int) float64 {
	gemm := 2.0 * float64(batch) * float64(hiddenSize) * float64(gruGates*hiddenSize)
	return gemm + 10.0*float64(batch)*float64(hiddenSize)
}

// GRUChainBackwardFlops estimates the chain-resident split GRU backward in
// deferred-gradient mode: the dRHh and dHPrev GEMMs plus elementwise work
// (dX, dW and DB are all hoisted into batched tasks).
func GRUChainBackwardFlops(batch, hiddenSize int) float64 {
	g := float64(gruGates * hiddenSize)
	gemm := 2.0 * float64(batch) * g * float64(hiddenSize)
	return gemm + 18.0*float64(batch)*float64(hiddenSize)
}

// RNNChainForwardFlops estimates the chain-resident split RNN forward.
func RNNChainForwardFlops(batch, hiddenSize int) float64 {
	return 2.0*float64(batch)*float64(hiddenSize)*float64(hiddenSize) + 2.0*float64(batch)*float64(hiddenSize)
}

// RNNChainBackwardFlops estimates the chain-resident split RNN backward in
// deferred-gradient mode: the dHPrev GEMM plus elementwise work.
func RNNChainBackwardFlops(batch, hiddenSize int) float64 {
	return 2.0*float64(batch)*float64(hiddenSize)*float64(hiddenSize) + 4.0*float64(batch)*float64(hiddenSize)
}
