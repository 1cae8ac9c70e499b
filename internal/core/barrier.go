package core

import "fmt"

// barrierer is implemented by executors that can record a synchronization
// point without blocking (taskrt.Recorder). Executors without it are
// synchronized by waiting for all outstanding tasks — the behaviour of
// framework per-layer barriers on a real runtime.
type barrierer interface{ Barrier() }

// barrier inserts a per-layer synchronization point: a recorded barrier for
// graph recorders, a full Wait otherwise.
func (e *Engine) barrier() error {
	if br, ok := e.Exec.(barrierer); ok {
		br.Barrier()
		return nil
	}
	return e.Exec.Wait()
}

// TrainStepBarrier runs one training step with framework-style per-layer
// barriers: each layer's forward (and later backward) tasks must all finish
// before the next layer's tasks start, exactly the synchronization pattern
// the paper attributes to TensorFlow-Keras and PyTorch (Section II). The
// numerics are identical to TrainStep; only the available parallelism
// differs. This is the ablation quantifying what removing barriers buys.
func (e *Engine) TrainStepBarrier(b *Batch, lr float64) (float64, error) {
	if e.phantom {
		return 0, fmt.Errorf("core: TrainStepBarrier on a phantom engine; use EmitTrainGraphBarrier")
	}
	if err := e.checkBatch(b, true); err != nil {
		return 0, err
	}
	T := b.SeqLen()
	wss := e.workspaces(T)
	e.refreshWeightCaches()
	// The barrier ablation always emits fresh (replay has no sync points to
	// model), so the post-step ResetDeps below handles the sanitizer state.
	e.bindWorkspaces(wss, b)
	if err := e.emitBarrierGraph(wss); err != nil {
		return 0, err
	}
	if err := e.Exec.Wait(); err != nil {
		return 0, err
	}

	scale := e.lossScale(b)
	loss := 0.0
	for _, ws := range wss {
		loss += ws.sumLosses()
	}
	loss /= scale
	e.applySGD(wss[0], lr, scale)
	e.maybeResetDeps()
	return loss, nil
}

// EmitTrainGraphBarrier records the per-layer-barrier training graph of one
// step (phantom engines with a Recorder executor); the simulator contrasts
// it against the barrier-free graph for the memory and scalability studies.
func (e *Engine) EmitTrainGraphBarrier(T int) {
	wss := e.workspaces(T)
	_ = e.emitBarrierGraph(wss)
}

// emitBarrierGraph emits forward and backward with a barrier between layers.
// Like the barrier-free emitters, all per-step data is read through the
// workspace step bindings, which the caller set up via bindWorkspaces
// (phantom emission has no bodies and needs no binding).
func (e *Engine) emitBarrierGraph(wss []*workspace) error {
	cfg := e.M.Cfg
	L := cfg.Layers
	for l := 0; l < L; l++ {
		// Framework-style layers process one direction fully, then the
		// other, then the merges, with synchronization points between —
		// "Each layer sequentially performs either forward or reverse
		// order RNNs computations for each timestamp, and then merge"
		// (Section II).
		for i, ws := range wss {
			e.fwdPass64(ws, i).cells(l, false)
		}
		if err := e.barrier(); err != nil {
			return err
		}
		for i, ws := range wss {
			e.fwdPass64(ws, i).cells(l, true)
		}
		if err := e.barrier(); err != nil {
			return err
		}
		for i, ws := range wss {
			e.fwdPass64(ws, i).mergeCells(l)
		}
		if err := e.barrier(); err != nil {
			return err
		}
	}
	for i, ws := range wss {
		fp := e.fwdPass64(ws, i)
		fp.finalMerge()
		fp.heads()
	}
	if err := e.barrier(); err != nil {
		return err
	}
	for l := L - 1; l >= 0; l-- {
		for i, ws := range wss {
			if l == L-1 {
				e.emitHeadBackward(ws, i)
				if cfg.anyClassify() {
					e.emitFinalMergeBackward(ws, i)
				}
			}
			if cfg.hasMergePerTimestep(l) {
				e.emitMergeBackward(ws, l, i)
			}
		}
		if err := e.barrier(); err != nil {
			return err
		}
		for i, ws := range wss {
			e.emitFwdCellBackward(ws, l, i)
		}
		if err := e.barrier(); err != nil {
			return err
		}
		for i, ws := range wss {
			e.emitRevCellBackward(ws, l, i)
		}
		if err := e.barrier(); err != nil {
			return err
		}
	}
	e.emitReduce(wss)
	return nil
}
