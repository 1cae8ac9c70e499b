package core

import (
	"fmt"
	"slices"

	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// kindFwdCell returns the task-kind string of a forward-propagation cell.
func (e *Engine) kindFwdCell() string {
	switch e.M.Cfg.Cell {
	case GRU:
		return "gru"
	case RNN:
		return "rnn"
	default:
		return "lstm"
	}
}

// fwdPass emits the forward-propagation task graph of one mini-batch at
// element type E, following the structure of Algorithms 2 and 3: per layer,
// the reverse-order cells (a dependency chain from t=T-1 down to 0), the
// forward-order cells (a chain from t=0 up to T-1), and the merge cells (each
// depending on exactly one forward and one reverse cell — Equation 11). Tasks
// are created in topological order; the run-time system overlaps their
// execution across layers and directions with no barrier.
//
// The graph is described once. A float64 pass (training, float64 inference)
// runs it against the master weights and the workspace's float64 buffers; a
// float32 pass (inference on an InferDType == F32 engine) runs the identical
// topology and dependency keys against the weight mirror and the float32
// buffers, fed by one conv task per timestep that writes the kX32 panels —
// the only dtype-specific part of the graph. float32 graphs are forward-only.
//
// Per-step data (the mini-batch's input views and labels) is never captured
// by task closures: bodies read it through the workspace's step binding (set
// by bindStep), so one emission can be captured into a taskrt.Template and
// replayed for every later batch of the same shape.
type fwdPass[E tensor.Elt] struct {
	e     *Engine
	ws    *workspace
	mbIdx int
	buf   *fwdBufs[E]
	w     *fwdWeights[E]
	kIn   []taskrt.Dep // layer-0 input keys: kX at float64, kX32 at float32
}

// fwdPass64 returns the float64 forward pass over ws.
func (e *Engine) fwdPass64(ws *workspace, mbIdx int) *fwdPass[float64] {
	return &fwdPass[float64]{e: e, ws: ws, mbIdx: mbIdx, buf: &ws.fwdBufs, w: e.w64, kIn: ws.kX}
}

// emitForward emits the float64 forward graph, heads included.
func (e *Engine) emitForward(ws *workspace, mbIdx int) {
	e.fwdPass64(ws, mbIdx).emit()
}

// emitInfer emits the forward-only graph at the engine's inference dtype.
func (e *Engine) emitInfer(ws *workspace, mbIdx int) {
	if !e.isF32() {
		e.emitForward(ws, mbIdx)
		return
	}
	e.emitConvertInputs(ws, mbIdx)
	(&fwdPass[float32]{e: e, ws: ws, mbIdx: mbIdx, buf: ws.f32, w: e.w32, kIn: ws.kX32}).emit()
}

func (fp *fwdPass[E]) emit() {
	for l := 0; l < fp.e.M.Cfg.Layers; l++ {
		fp.cells(l, true)
		fp.cells(l, false)
		fp.mergeCells(l)
	}
	fp.finalMerge()
	fp.heads()
}

// emitConvertInputs emits one conversion task per timestep, narrowing the
// bound float64 batch views into the workspace's float32 input panels. Conv
// tasks are the only tasks that read both representations; everything
// downstream of kX32 is pure float32.
func (e *Engine) emitConvertInputs(ws *workspace, mbIdx int) {
	in := e.M.Cfg.InputSize
	batch := make([]*taskrt.Task, 0, ws.T)
	for t := 0; t < ws.T; t++ {
		task := &taskrt.Task{
			Label:      fmt.Sprintf("conv t%d mb%d", t, mbIdx),
			Kind:       "conv",
			In:         []taskrt.Dep{ws.kX[t]},
			Out:        []taskrt.Dep{ws.kX32[t]},
			Flops:      float64(ws.rows * in),
			WorkingSet: int64(12 * ws.rows * in),
		}
		task.Fn = func() {
			if t < ws.bind.maxLen {
				tensor.ConvertInto(ws.f32.x[t], ws.x[t])
			}
		}
		batch = append(batch, task)
	}
	e.rec.SubmitAll(batch)
}

// projTileT is the timestep-tile width of one input-projection task. Tiling
// amortizes the Wx panel's memory traffic across several timesteps while
// keeping enough projection tasks in flight to overlap with the recurrence.
const projTileT = 8

// projection emits layer l's blocked input-projection tasks for one
// direction: Pre_t = X_t*Wx^T + B for every timestep of a tile. These tasks
// depend only on the layer input — never on the recurrence — so they are the
// off-critical-path half of the split-gate decomposition. Tiles of the
// reverse direction are submitted high-t first, matching the order its chain
// consumes them.
func (fp *fwdPass[E]) projection(l int, rev bool) {
	e, ws, T, di := fp.e, fp.ws, fp.ws.T, dirIdx(rev)
	p, d := e.M.dir[di][l], &ws.dir[di]
	in, gw := p.dims()
	stepFlops := p.projFlops(ws.rows)

	tiles := make([][2]int, 0, (T+projTileT-1)/projTileT)
	for t0 := 0; t0 < T; t0 += projTileT {
		tiles = append(tiles, [2]int{t0, min(t0+projTileT, T)})
	}
	if rev {
		for i, j := 0, len(tiles)-1; i < j; i, j = i+1, j-1 {
			tiles[i], tiles[j] = tiles[j], tiles[i]
		}
	}

	batch := make([]*taskrt.Task, 0, len(tiles))
	for _, tile := range tiles {
		t0, t1 := tile[0], tile[1]
		deps := make([]taskrt.Dep, 0, t1-t0)
		outs := make([]taskrt.Dep, 0, t1-t0)
		for t := t0; t < t1; t++ {
			deps = append(deps, ws.inputKey(fp.kIn, l, t))
			outs = append(outs, d.kPre[l][t])
		}
		task := &taskrt.Task{
			Label:      fmt.Sprintf("proj-%s L%d t%d:%d mb%d", dirName[di], l, t0, t1, fp.mbIdx),
			Kind:       "proj",
			In:         deps,
			Out:        outs,
			Flops:      stepFlops * float64(t1-t0),
			WorkingSet: int64(8 * (gw*(in+1) + (t1-t0)*ws.rows*(in+gw))),
		}
		buf, k := fp.buf, fp.w.dir[di][l]
		pres := buf.pre[di][l][t0:t1]
		xs := make([]*tensor.Mat[E], t1-t0)
		task.Fn = func() {
			// Clip the tile at the longest row: each timestep's preload is
			// computed independently, so the bits match a full tile.
			n := max(0, min(t1, ws.bind.maxLen)-t0)
			for i := range n {
				xs[i] = buf.input(l, t0+i)
			}
			k.preGatesBatch(xs[:n], pres[:n])
		}
		batch = append(batch, task)
	}
	e.rec.SubmitAll(batch)
}

// cells emits layer l's cells of one direction: forward-order cells
// processed 0 → T-1 (Algorithm 2), reverse-order cells T-1 → 0 (Algorithm
// 3). The direction's projection tasks go first and each chain task consumes
// its gate preload instead of the raw input, so its only serial dependency is
// the previous state.
//
// Variable-length batches: each reverse body masks its state rows to zero
// where timestep t is padding (lens[i] <= t), so row i's reverse chain
// effectively restarts from the zero boundary state at its true last
// timestep lens[i]-1 — bitwise-identical to running that row at its own
// length. The forward direction needs no mask: padded-tail garbage stays
// confined to rows whose real outputs never read it (rows are independent,
// and padded frames carry IgnoreLabel losses and zero gradients). Every
// forward body — conv, projection, cell, merge and per-frame head — returns
// at once at timesteps ≥ ws.bind.maxLen, which every row pads; the reverse
// chain then starts from the zero state, exactly what the mask would leave.
func (fp *fwdPass[E]) cells(l int, rev bool) {
	e, ws, T, di := fp.e, fp.ws, fp.ws.T, dirIdx(rev)
	p, d := e.M.dir[di][l], &ws.dir[di]
	cellKind := e.kindFwdCell()
	flops := p.chainFwdFlops(ws.rows)
	cellWS := p.taskWorkingSet(ws.rows)
	fp.projection(l, rev)

	batch := make([]*taskrt.Task, 0, T)
	for u := 0; u < T; u++ {
		// t is the u-th cell of the chain, prev its predecessor's timestep.
		t, prev := u, u-1
		if rev {
			t, prev = T-1-u, T-u
		}
		in := []taskrt.Dep{d.kPre[l][t]}
		if u > 0 {
			in = append(in, d.kSt[l][prev])
		}
		task := &taskrt.Task{
			Label: fmt.Sprintf("%s L%d t%d mb%d", dirName[di], l, t, fp.mbIdx),
			Kind:  cellKind,
			In:    in,
			Out:   []taskrt.Dep{d.kSt[l][t]},
			Flops: flops, WorkingSet: cellWS,
		}
		buf, k, first := fp.buf, fp.w.dir[di][l], u == 0
		sts, pre := buf.st[di][l], buf.pre[di][l][t]
		task.Fn = func() {
			if t >= ws.bind.maxLen {
				return
			}
			hPrev, cPrev := buf.zeroH, buf.zeroC
			if !first && prev < ws.bind.maxLen {
				hPrev, cPrev = sts[prev].H(), sts[prev].C()
			}
			k.forwardPre(pre, hPrev, cPrev, sts[t])
			if rev {
				buf.maskRevState(l, t, ws.bind.lens)
			}
		}
		batch = append(batch, task)
	}
	e.rec.SubmitAll(batch)
}

// mergeCells emits layer l's merge cells. Merges are kept as separate tasks
// precisely so that forward and reverse cells of the same layer never depend
// on each other.
func (fp *fwdPass[E]) mergeCells(l int) {
	ws, cfg, T := fp.ws, fp.e.M.Cfg, fp.ws.T
	if !cfg.hasMergePerTimestep(l) {
		return
	}
	mFlops, mWS := cfg.Merge.Cost(ws.rows, cfg.HiddenSize)
	batch := make([]*taskrt.Task, 0, T)
	for t := 0; t < T; t++ {
		task := &taskrt.Task{
			Label: fmt.Sprintf("merge L%d t%d mb%d", l, t, fp.mbIdx),
			Kind:  "merge",
			In:    []taskrt.Dep{ws.dir[fwdDir].kSt[l][t], ws.dir[revDir].kSt[l][t]},
			Out:   []taskrt.Dep{ws.kMerged[l][t]},
			Flops: mFlops, WorkingSet: mWS,
		}
		buf := fp.buf
		task.Fn = func() {
			if t < ws.bind.maxLen {
				mergeForward(cfg.Merge, buf.merged[l][t], buf.st[fwdDir][l][t].H(), buf.st[revDir][l][t].H())
			}
		}
		batch = append(batch, task)
	}
	fp.e.rec.SubmitAll(batch)
}

// finalMerge emits the single final merge feeding the classification heads:
// cells 9f and 9r of Figure 1 — the forward direction's sequence-final state
// and the last-processed reverse cell. Under a lens binding the
// sequence-final forward state is per-row st[fwdDir][L-1][lens[i]-1], so the task
// conservatively depends on every top-layer forward cell (one template serves
// both full-length and masked batches of the same T) and gathers the rows it
// needs at run time. No-op when no head classifies.
func (fp *fwdPass[E]) finalMerge() {
	ws, cfg := fp.ws, fp.e.M.Cfg
	L := cfg.Layers
	if !cfg.anyClassify() {
		return
	}
	mFlops, mWS := cfg.Merge.Cost(ws.rows, cfg.HiddenSize)
	task := &taskrt.Task{
		Label:      fmt.Sprintf("merge-final mb%d", fp.mbIdx),
		Kind:       "merge",
		In:         ws.finalStateKeys(),
		Out:        []taskrt.Dep{ws.kFinalMerged},
		Flops:      mFlops,
		WorkingSet: mWS,
	}
	buf := fp.buf
	task.Fn = func() {
		mergeForward(cfg.Merge, buf.finalMerged, buf.gatherLastHFwd(ws.bind.lens), buf.st[revDir][L-1][0].H())
	}
	fp.e.rec.Submit(task)
}

// finalStateKeys lists the keys of the states the final merge (and its
// backward twin) reads: every top-layer forward cell, then the reverse
// direction's last-processed cell.
func (w *workspace) finalStateKeys() []taskrt.Dep {
	top := w.cfg.Layers - 1
	return append(slices.Clone(w.dir[fwdDir].kSt[top]), w.dir[revDir].kSt[top][0])
}

// inputKey returns the dependency key of the input consumed by layer l at
// timestep t: the merge output below, or for layer 0 the raw batch input,
// named by kX (w.kX; w.kX32 for its converted panel on the float32 graph).
func (w *workspace) inputKey(kX []taskrt.Dep, l, t int) taskrt.Dep {
	if l == 0 {
		return kX[t]
	}
	return w.kMerged[l-1][t]
}

// heads emits one task per output slot of every head: logits, softmax and
// summed cross-entropy, fed by the final merge (classification heads) or the
// timestep's merge (per-frame heads). Labels are read from the step binding
// at run time, so the same task serves labeled and unlabeled batches across
// replays. Slot layout is head-major (Config.HeadSlotRange).
func (fp *fwdPass[E]) heads() {
	ws, cfg := fp.ws, fp.e.M.Cfg
	D := cfg.MergeDim()
	L, T := cfg.Layers, ws.T

	for h, spec := range cfg.HeadSpecs() {
		// A classification head owns one slot fed by the final merge; a
		// per-frame head owns T, each fed by its timestep's merge.
		perFrame, kind := spec.Kind.PerFrame(), spec.Kind
		lo, n := cfg.HeadSlotRange(h, T)
		hFlops := 2 * float64(ws.rows) * float64(D) * float64(spec.Classes)
		hWS := int64(8 * (ws.rows*D + ws.rows*spec.Classes + spec.Classes*D))

		batch := make([]*taskrt.Task, 0, n)
		for t := 0; t < n; t++ {
			label, kIn := fmt.Sprintf("head%d mb%d", h, fp.mbIdx), ws.kFinalMerged
			if perFrame {
				label, kIn = fmt.Sprintf("head%d t%d mb%d", h, t, fp.mbIdx), ws.kMerged[L-1][t]
			}
			task := &taskrt.Task{
				Label: label,
				Kind:  "head",
				In:    []taskrt.Dep{kIn},
				Out:   []taskrt.Dep{ws.kProbs[lo+t]},
				Flops: hFlops, WorkingSet: hWS,
			}
			buf := fp.buf
			task.Fn = func() {
				input, targets := buf.finalMerged, ws.bind.targets
				if perFrame {
					if t >= ws.bind.maxLen {
						// A skipped frame answers 0; its loss is the 0
						// bindStep left (every row is IgnoreLabel).
						buf.probs[lo+t].Zero()
						return
					}
					input, targets = buf.merged[L-1][t], ws.headTargetsAt(kind, t)
				}
				fp.headForward(h, lo+t, input, targets)
			}
			batch = append(batch, task)
		}
		fp.e.rec.SubmitAll(batch)
	}
}

// headForward computes logits, probabilities, and (when labels are present)
// the summed cross-entropy for head h's output slot `slot`, fed by input.
func (fp *fwdPass[E]) headForward(h, slot int, input *tensor.Mat[E], targets []int) {
	buf := fp.buf
	tensor.MatMulT(buf.logits[slot], input, fp.w.headW[h])
	tensor.AddBiasRows(buf.logits[slot], fp.w.headB[h])
	buf.probs[slot].CopyFrom(buf.logits[slot])
	tensor.SoftmaxRows(buf.probs[slot])
	if targets != nil {
		fp.ws.losses[slot] = sumCrossEntropy(buf.probs[slot], targets)
	}
}

// sumCrossEntropy totals the negative log-likelihood over rows, skipping
// IgnoreLabel rows (padding of variable-length sequences).
func sumCrossEntropy[E tensor.Elt](probs *tensor.Mat[E], targets []int) float64 {
	loss := 0.0
	for i, tgt := range targets {
		if tgt == tensor.IgnoreLabel {
			continue
		}
		p := float64(probs.At(i, tgt))
		loss -= logF(p + 1e-12)
	}
	return loss
}
