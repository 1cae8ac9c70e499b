package core

import (
	"fmt"

	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// emitBackward emits the backward-propagation task graph of one mini-batch.
// It mirrors the forward graph (the red arrows of Figure 2): starting from
// the classifier head, gradients flow down through merge-backward tasks and
// along each direction's cell chain in the order opposite to forward
// processing. Gradient accumulation into the shared per-layer weight
// gradients is serialized by an inout dependency, which both removes data
// races and fixes the floating-point summation order, so parallel training
// is bitwise identical to sequential training.
func (e *Engine) emitBackward(ws *workspace, mbIdx int) {
	cfg := e.M.Cfg
	L := cfg.Layers

	for l := L - 1; l >= 0; l-- {
		if l == L-1 {
			e.emitHeadBackward(ws, mbIdx)
			if cfg.anyClassify() {
				e.emitFinalMergeBackward(ws, mbIdx)
			}
		}
		if cfg.hasMergePerTimestep(l) {
			e.emitMergeBackward(ws, l, mbIdx)
		}
		e.emitCellBackward(ws, l, mbIdx, false)
		e.emitCellBackward(ws, l, mbIdx, true)
	}
}

// kindBwdCell returns the task-kind string of a backward cell task.
func (e *Engine) kindBwdCell() string {
	switch e.M.Cfg.Cell {
	case GRU:
		return "gru-bwd"
	case RNN:
		return "rnn-bwd"
	default:
		return "lstm-bwd"
	}
}

// emitHeadBackward emits the head gradient tasks of every head: dLogits =
// probs - onehot (sum convention), head weight gradients, and the gradient
// flowing into the final merge (classification heads) or the timestep's merge
// slot (per-frame heads). The merge-gradient buffers are zeroed by
// resetForStep and every head *accumulates* into them (inout), so heads
// sharing the trunk serialize in declaration order — race-free and bitwise
// deterministic — while a single head reproduces the legacy overwrite
// (Zero + GemmAcc ≡ MatMul) exactly.
func (e *Engine) emitHeadBackward(ws *workspace, mbIdx int) {
	cfg := e.M.Cfg
	D := cfg.MergeDim()
	L, T := cfg.Layers, ws.T

	for h, spec := range cfg.HeadSpecs() {
		h, spec := h, spec
		lo, _ := cfg.HeadSlotRange(h, T)
		hFlops := 4 * float64(ws.rows) * float64(D) * float64(spec.Classes)
		hWS := int64(8 * (2*ws.rows*D + ws.rows*spec.Classes + 2*spec.Classes*D))

		if !spec.Kind.PerFrame() {
			task := &taskrt.Task{
				Label: fmt.Sprintf("head%d-bwd mb%d", h, mbIdx),
				Kind:  "head-bwd",
				In:    []taskrt.Dep{ws.kProbs[lo], ws.kFinalMerged},
				InOut: []taskrt.Dep{ws.kHeadGrads[h], ws.kDFinalMerged},
				Flops: hFlops, WorkingSet: hWS,
			}
			task.Fn = func() {
				e.headBackward(ws, h, lo, ws.finalMerged, ws.bind.targets, ws.dFinalMerged)
			}
			e.rec.Submit(task)
			continue
		}

		batch := make([]*taskrt.Task, 0, T)
		for t := T - 1; t >= 0; t-- {
			task := &taskrt.Task{
				Label: fmt.Sprintf("head%d-bwd t%d mb%d", h, t, mbIdx),
				Kind:  "head-bwd",
				In:    []taskrt.Dep{ws.kProbs[lo+t], ws.kMerged[L-1][t]},
				InOut: []taskrt.Dep{ws.kHeadGrads[h], ws.kDMerged[L-1][t]},
				Flops: hFlops, WorkingSet: hWS,
			}
			t := t
			task.Fn = func() {
				e.headBackward(ws, h, lo+t, ws.merged[L-1][t], ws.headTargetsAt(spec.Kind, t), ws.dMerged[L-1][t])
			}
			batch = append(batch, task)
		}
		e.rec.SubmitAll(batch)
	}
}

// headBackward computes, for head h's slot `slot`: dLogits = probs -
// onehot(targets), accumulates head h's weight gradients, and accumulates
// dInput += dLogits * W (the caller zeroes dInput once per step; heads
// sharing a merge slot are serialized by their inout dependency on it).
func (e *Engine) headBackward(ws *workspace, h, slot int, input *tensor.Matrix, targets []int, dInput *tensor.Matrix) {
	// ws.dLogits[h] is shared across head h's slots; safe because the head's
	// backward tasks are serialized by the inout dependency on kHeadGrads[h].
	head := &e.M.Heads[h]
	dLogits := ws.dLogits[h]
	dLogits.CopyFrom(ws.probs[slot])
	for i, tgt := range targets {
		if tgt == tensor.IgnoreLabel {
			// Padding rows and frames of variable-length sequences carry no
			// gradient.
			for j := 0; j < dLogits.Cols; j++ {
				dLogits.Set(i, j, 0)
			}
			continue
		}
		dLogits.Set(i, tgt, dLogits.At(i, tgt)-1)
	}
	tensor.GemmATAcc(ws.headGrads[h].W, dLogits, input)
	for i := 0; i < dLogits.Rows; i++ {
		row := dLogits.Row(i)
		for j, v := range row {
			ws.headGrads[h].B[j] += v
		}
	}
	tensor.GemmAcc(dInput, dLogits, head.W)
}

// emitFinalMergeBackward splits the accumulated final-merge gradient into the
// two direction-specific gradients dir[d].dFinalH. These are dedicated
// buffers (not the per-timestep merge-gradient slots) so classification heads
// coexist with per-frame heads on the same trunk; the top layer's chain tasks
// inject them at each row's true boundary step. The task re-runs the forward
// gather (GatherRows reads every top-layer forward state under Lens, and the
// multiplicative merge consumes the gathered values), so like the final merge
// it conservatively depends on every top-layer forward cell plus the reverse
// boundary cell — one In set for every merge op and lens shape, keeping the
// template replayable across masked and full-length batches.
func (e *Engine) emitFinalMergeBackward(ws *workspace, mbIdx int) {
	cfg := e.M.Cfg
	L := cfg.Layers
	f, r := &ws.dir[fwdDir], &ws.dir[revDir]
	mFlops, mWS := cfg.Merge.Cost(ws.rows, cfg.HiddenSize)
	task := &taskrt.Task{
		Label:      fmt.Sprintf("merge-final-bwd mb%d", mbIdx),
		Kind:       "merge-bwd",
		In:         append([]taskrt.Dep{ws.kDFinalMerged}, ws.finalStateKeys()...),
		Out:        []taskrt.Dep{f.kDFinalH, r.kDFinalH},
		Flops:      mFlops,
		WorkingSet: mWS,
	}
	task.Fn = func() {
		mergeBackward(cfg.Merge, ws.dFinalMerged,
			ws.gatherLastHFwd(ws.bind.lens), ws.st[revDir][L-1][0].H(),
			f.dFinalH, r.dFinalH)
	}
	e.rec.Submit(task)
}

// emitMergeBackward emits one merge-backward task per timestep of layer l,
// converting the accumulated dMerged into per-direction cell gradients.
func (e *Engine) emitMergeBackward(ws *workspace, l, mbIdx int) {
	cfg := e.M.Cfg
	mFlops, mWS := cfg.Merge.Cost(ws.rows, cfg.HiddenSize)
	f, r := &ws.dir[fwdDir], &ws.dir[revDir]
	batch := make([]*taskrt.Task, 0, ws.T)
	for t := 0; t < ws.T; t++ {
		in := []taskrt.Dep{ws.kDMerged[l][t]}
		if cfg.Merge == MergeMul {
			in = append(in, f.kSt[l][t], r.kSt[l][t])
		}
		task := &taskrt.Task{
			Label: fmt.Sprintf("merge-bwd L%d t%d mb%d", l, t, mbIdx),
			Kind:  "merge-bwd",
			In:    in,
			Out:   []taskrt.Dep{f.kDHMerge[l][t], r.kDHMerge[l][t]},
			Flops: mFlops, WorkingSet: mWS,
		}
		l, t := l, t
		task.Fn = func() {
			mergeBackward(cfg.Merge, ws.dMerged[l][t],
				ws.st[fwdDir][l][t].H(), ws.st[revDir][l][t].H(),
				f.dHMerge[l][t], r.dHMerge[l][t])
		}
		batch = append(batch, task)
	}
	e.rec.SubmitAll(batch)
}

// emitCellBackward emits one direction's backward cell chain of layer l — the
// forward chain reversed, so the forward direction's BPTT runs t=T-1 → 0 and
// the reverse direction's (whose RNN processed t=T-1 first) t=0 → T-1 —
// followed by the direction's batched dw task and dx tile tasks. Every chain
// task sums its merge gradient and chain gradient into the total dH and runs
// the cell's BPTT remainder, leaving only its gate gradients and dHPrev: dX
// and the weight gradients are hoisted off the chain into the dx tiles and
// the dw task.
func (e *Engine) emitCellBackward(ws *workspace, l, mbIdx int, rev bool) {
	cfg := e.M.Cfg
	T, di := ws.T, dirIdx(rev)
	p, d := e.M.dir[di][l], &ws.dir[di]
	bFlops := p.chainBwdFlops(ws.rows)
	cellWS := p.taskWorkingSet(ws.rows)
	kind := e.kindBwdCell()
	isLSTM := cfg.Cell == LSTM
	// The top layer's chain injects the final-merge gradient where the
	// direction produced its sequence-final state. Forward: row i's last real
	// step is lens[i]-1 (T-1 with no lens bound), so every chain task reads
	// dFinalH and adds the rows whose boundary it is. Reverse: always t=0
	// (masking restarts each short row's chain, so its t=0 state is its true
	// reverse output), so only the t=0 task injects, all rows at once.
	classify := cfg.anyClassify() && l == cfg.Layers-1

	batch := make([]*taskrt.Task, 0, T)
	for u := 0; u < T; u++ {
		// t is the u-th cell of the backward chain; prev is the timestep of
		// the state cell t consumed in the forward pass — its predecessor in
		// processing order, which the backward chain visits next.
		t, prev, hasPrev := T-1-u, T-2-u, u < T-1
		if rev {
			t, prev = u, u+1
		}
		inject := classify && (!rev || t == 0)
		in := []taskrt.Dep{d.kSt[l][t], d.kDHMerge[l][t], d.kDHChain[l][t]}
		if inject {
			in = append(in, d.kDFinalH)
		}
		if isLSTM {
			in = append(in, d.kDCChain[l][t])
		}
		if hasPrev {
			in = append(in, d.kSt[l][prev])
		}
		out := []taskrt.Dep{d.kDGates[l][t]}
		if hasPrev {
			out = append(out, d.kDHChain[l][prev])
			if isLSTM {
				out = append(out, d.kDCChain[l][prev])
			}
		}
		task := &taskrt.Task{
			Label: fmt.Sprintf("%s-bwd L%d t%d mb%d", dirName[di], l, t, mbIdx),
			Kind:  kind,
			In:    in, InOut: []taskrt.Dep{d.kGrads[l]}, Out: out,
			Flops: bFlops, WorkingSet: cellWS,
		}
		sts := ws.st[di][l]
		task.Fn = func() {
			tensor.Add(d.dHSum[l], d.dHMerge[l][t], d.dHChain[l][t])
			switch {
			case inject && rev:
				tensor.AddAcc(d.dHSum[l], d.dFinalH)
			case inject:
				tensor.AddRowsWhere(d.dHSum[l], d.dFinalH, ws.bind.lens, t, T-1)
			}
			// The boundary cell consumed the zero state, and its dHPrev
			// has no consumer.
			hPrev, cPrev := ws.zeroH, ws.zeroC
			dHPrev, dCPrev := d.dHSink[l], d.dCSink[l]
			if hasPrev {
				hPrev, cPrev = sts[prev].H(), sts[prev].C()
				dHPrev, dCPrev = d.dHChain[l][prev], d.dCChain[l][prev]
			}
			p.backwardPre(sts[t], hPrev, cPrev,
				d.dHSum[l], d.dCChain[l][t], d.dGates[l][t],
				dHPrev, dCPrev, d.grads[l])
			if rev && hasPrev {
				// The gradient w.r.t. a masked (constant-zero) boundary
				// state must not leak into the padded steps' chain: zero
				// the rows whose reverse chain restarted at this step.
				tensor.MaskRowsZero(d.dHChain[l][prev], ws.bind.lens, prev)
				if isLSTM {
					tensor.MaskRowsZero(d.dCChain[l][prev], ws.bind.lens, prev)
				}
			}
		}
		batch = append(batch, task)
	}
	e.rec.SubmitAll(batch)
	e.emitDW(ws, mbIdx, l, rev)
	if l > 0 {
		e.emitDX(ws, mbIdx, l, rev)
	}
}

// emitDW emits the single batched weight-gradient task of layer l's given
// direction: DW += stack(dGates)^T · [stack(X) ‖ stack(HPrev)] and DB += Σ_t
// dGates_t, hoisted out of the recurrence so the per-timestep backward tasks
// compute only gate gradients and dHPrev. Transposing the sequences into
// contiguous stacks turns both weight halves into dot-form GEMMs that
// accumulate in registers over K = T·rows instead of read-modify-writing the
// gradient panel once per timestep. Serializing on the inout gradient key
// pins the task after every chain task and fixes the summation order (t
// ascending), keeping parallel training bitwise identical to sequential.
func (e *Engine) emitDW(ws *workspace, mbIdx, l int, rev bool) {
	T, di := ws.T, dirIdx(rev)
	p, d := e.M.dir[di][l], &ws.dir[di]
	in, gw := p.dims()
	hs := p.hiddenSize()
	deps := make([]taskrt.Dep, 0, 3*T)
	for t := 0; t < T; t++ {
		deps = append(deps, d.kDGates[l][t], ws.inputKey(ws.kX, l, t), d.kSt[l][t])
	}
	task := &taskrt.Task{
		Label:      fmt.Sprintf("dw-%s L%d mb%d", dirName[di], l, mbIdx),
		Kind:       "dw",
		In:         deps,
		InOut:      []taskrt.Dep{d.kGrads[l]},
		Flops:      p.dwFlops(T, ws.rows),
		WorkingSet: int64(8 * (gw*(in+hs) + T*ws.rows*(in+hs+gw))),
	}
	sts := ws.st[di][l]
	xs := make([]*tensor.Matrix, T)
	hPrevs := make([]*tensor.Matrix, T)
	var rhs []*tensor.Matrix
	if e.M.Cfg.Cell == GRU {
		rhs = make([]*tensor.Matrix, T)
	}
	for t := 0; t < T; t++ {
		// The cell at t consumed the neighbor state in processing order; the
		// boundary cell consumed the zero state.
		hPrevs[t] = ws.zeroH
		if rev && t < T-1 {
			hPrevs[t] = sts[t+1].H()
		} else if !rev && t > 0 {
			hPrevs[t] = sts[t-1].H()
		}
		if rhs != nil {
			rhs[t] = sts[t].gru.RH
		}
	}
	task.Fn = func() {
		for t := range xs {
			xs[t] = ws.input(l, t)
		}
		p.dwBatch(d.grads[l], d.dGates[l], xs, hPrevs, rhs, d.stackP[l], d.stackB[l])
	}
	e.rec.Submit(task)
}

// emitDX emits the batched input-gradient tasks of layer l's given
// direction: per timestep tile, dMerged[l-1][t] += dGates_t * Wx. Like the
// forward projection, dX has no recurrence dependency — it only feeds the
// layer below — so it streams the Wx panel once per tile instead of once per
// chain step. Layer 0 has no consumer for its input gradient, so no dx task
// exists there. The inout dependencies on the merge-gradient buffers
// serialize the two directions' accumulations in submission order, keeping
// parallel training bitwise deterministic.
func (e *Engine) emitDX(ws *workspace, mbIdx, l int, rev bool) {
	T, di := ws.T, dirIdx(rev)
	p, d := e.M.dir[di][l], &ws.dir[di]
	in, gw := p.dims()
	step := p.dxFlops(ws.rows)
	for t0 := 0; t0 < T; t0 += projTileT {
		t1 := min(t0+projTileT, T)
		deps := make([]taskrt.Dep, 0, t1-t0)
		inout := make([]taskrt.Dep, 0, t1-t0)
		for t := t0; t < t1; t++ {
			deps = append(deps, d.kDGates[l][t])
			inout = append(inout, ws.kDMerged[l-1][t])
		}
		task := &taskrt.Task{
			Label:      fmt.Sprintf("dx-%s L%d t%d:%d mb%d", dirName[di], l, t0, t1, mbIdx),
			Kind:       "dx",
			In:         deps,
			InOut:      inout,
			Flops:      step * float64(t1-t0),
			WorkingSet: int64(8 * (gw*in + (t1-t0)*ws.rows*(in+gw))),
		}
		dsts, panels := ws.dMerged[l-1][t0:t1], d.dGates[l][t0:t1]
		task.Fn = func() { p.dxBatch(dsts, panels) }
		e.rec.Submit(task)
	}
}

// emitReduce emits the mini-batch gradient reduction tasks: one task per
// parameter-catalogue entry (layer and direction, then head) that folds every
// mini-batch's gradients into workspace 0. These are the dependencies that,
// in the paper's words, "enforce gradient synchronization among model
// replicas" — expressed purely as dataflow, with no barrier.
func (e *Engine) emitReduce(wss []*workspace) {
	if len(wss) == 1 {
		return
	}
	w0, others := wss[0], wss[1:]
	params := e.M.params
	batch := make([]*taskrt.Task, 0, len(params))
	for i, p := range params {
		in := make([]taskrt.Dep, len(others))
		for j, ws := range others {
			in[j] = ws.grads[i].key
		}
		task := &taskrt.Task{
			Label:      "reduce " + p.name,
			Kind:       "reduce",
			In:         in,
			InOut:      []taskrt.Dep{w0.grads[i].key},
			Flops:      2 * float64(p.count()) * float64(len(others)),
			WorkingSet: int64(p.count()) * 8 * int64(len(wss)),
		}
		task.Fn = func() {
			for _, ws := range others {
				w0.grads[i].axpy(1, ws.grads[i].wb)
			}
		}
		batch = append(batch, task)
	}
	e.rec.SubmitAll(batch)
}
