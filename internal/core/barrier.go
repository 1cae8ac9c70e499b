package core

// TrainStepBarrier runs one training step with framework-style per-layer
// barriers: each layer's forward (and later backward) tasks must all finish
// before the next layer's tasks start, exactly the synchronization pattern
// the paper attributes to TensorFlow-Keras and PyTorch (Section II). The
// numerics are identical to TrainStep; only the available parallelism
// differs. This is the ablation quantifying what removing barriers buys.
func (e *Engine) TrainStepBarrier(b *Batch, lr float64) (float64, error) {
	return e.runStep(b, stepTrainBarrier, func(wss []*workspace, scale float64) { e.applySGD(wss[0], lr, scale) })
}

// emitBarrierGraph emits forward and backward with a barrier node between
// layers: every task before it precedes it, and it precedes every task after
// it, which is what a full Wait on the executor between layers would do.
// Like the barrier-free emitters, all per-step data is read through the
// workspace step bindings, which the caller set up via bindWorkspaces.
func (e *Engine) emitBarrierGraph(wss []*workspace) {
	cfg := e.M.Cfg
	L := cfg.Layers
	// phase emits one group of tasks for every mini-batch, then a barrier.
	phase := func(emit func(ws *workspace, mbIdx int)) {
		for i, ws := range wss {
			emit(ws, i)
		}
		e.rec.Barrier()
	}
	dirs := [2]bool{false, true}
	for l := 0; l < L; l++ {
		// Framework-style layers process one direction fully, then the
		// other, then the merges, with synchronization points between —
		// "Each layer sequentially performs either forward or reverse
		// order RNNs computations for each timestamp, and then merge"
		// (Section II).
		for _, rev := range dirs {
			phase(func(ws *workspace, i int) { e.fwdPass64(ws, i).cells(l, rev) })
		}
		phase(func(ws *workspace, i int) { e.fwdPass64(ws, i).mergeCells(l) })
	}
	phase(func(ws *workspace, i int) {
		fp := e.fwdPass64(ws, i)
		fp.finalMerge()
		fp.heads()
	})
	for l := L - 1; l >= 0; l-- {
		phase(func(ws *workspace, i int) {
			if l == L-1 {
				e.emitHeadBackward(ws, i)
				if cfg.anyClassify() {
					e.emitFinalMergeBackward(ws, i)
				}
			}
			if cfg.hasMergePerTimestep(l) {
				e.emitMergeBackward(ws, l, i)
			}
		})
		for _, rev := range dirs {
			phase(func(ws *workspace, i int) { e.emitCellBackward(ws, l, i, rev) })
		}
	}
	e.emitReduce(wss)
}
