package core

import (
	"errors"
	"fmt"

	"bpar/internal/taskrt"
)

// BSeq is the paper's data-parallel-only baseline: the batch is split into
// mini-batches, each mini-batch is processed *sequentially* (one coarse task
// runs its entire forward and backward propagation inline), and gradients
// are combined before the weight update. B-Seq exposes at most MiniBatches
// parallel software components to the hardware, which is why its scalability
// flattens at 8 cores in Figure 4, while B-Par adds model parallelism on
// top of the same data parallelism.
type BSeq struct {
	M *Model
	// Exec replays one coarse task per mini-batch; normally a
	// taskrt.Runtime so mini-batches run on different cores.
	Exec taskrt.Executor

	subs []*Engine
	// tpl holds the coarse tasks, frozen once. Each step binds its
	// mini-batch views in mbs before the replay; task i records its
	// sub-engine's error in errs[i].
	tpl  *taskrt.Template
	mbs  []*Batch
	errs []error
}

// NewBSeq builds the baseline around an existing model. The model's
// MiniBatches field sets the data-parallel width.
func NewBSeq(m *Model, exec taskrt.Executor) *BSeq {
	n := m.Cfg.MiniBatches
	s := &BSeq{M: m, Exec: exec, mbs: make([]*Batch, n), errs: make([]error, n)}
	rec := taskrt.NewCapture()
	for i := 0; i < n; i++ {
		// Each sub-engine shares the parent's weights but sees its
		// mini-batch as its whole world, replayed inline.
		lo, hi := m.Cfg.mbBounds(i)
		cfg := m.Cfg
		cfg.Batch, cfg.MiniBatches = hi-lo, 1
		sub := NewEngine(m.view(cfg), taskrt.NewInline(nil))
		s.subs = append(s.subs, sub)
		rec.Submit(&taskrt.Task{
			Label: fmt.Sprintf("bseq mb%d", i),
			Kind:  "bseq",
			Fn: func() {
				_, s.errs[i] = sub.runStep(s.mbs[i], stepTrain, func([]*workspace, float64) {})
			},
		})
	}
	s.tpl = rec.Freeze()
	return s
}

// TrainStep runs one data-parallel training step: one sequential coarse task
// per mini-batch, then a sequential gradient combine and SGD update.
// The result is bitwise identical to Engine.TrainStep with the same
// MiniBatches setting, because per-mini-batch computation and the reduction
// order are identical — only the available parallelism differs.
func (s *BSeq) TrainStep(b *Batch, lr float64) (float64, error) {
	if err := s.M.Cfg.checkBatch(b, true); err != nil {
		return 0, err
	}
	for i := range s.mbs {
		s.mbs[i] = b.sliceRows(s.M.Cfg.mbBounds(i))
	}
	clear(s.errs)
	s.Exec.Replay(s.tpl)
	err := s.Exec.Wait()
	if err = errors.Join(append(s.errs, err)...); err != nil {
		return 0, err
	}

	// Combine mini-batch gradients into mini-batch 0's buffers in index
	// order — the same order Engine.emitReduce uses.
	T := b.SeqLen()
	w0 := s.subs[0].workspaces(T)[0]
	loss := w0.sumLosses()
	for _, sub := range s.subs[1:] {
		ws := sub.workspaces(T)[0]
		loss += ws.sumLosses()
		for i, g := range w0.grads {
			g.axpy(1, ws.grads[i].wb)
		}
	}

	scale := s.M.Cfg.lossScale(b, s.M.Cfg.Batch)
	s.subs[0].applySGD(w0, lr, scale)
	return loss / scale, nil
}

// sumLosses totals a workspace's per-slot summed losses.
func (w *workspace) sumLosses() float64 {
	total := 0.0
	for _, l := range w.losses {
		total += l
	}
	return total
}
