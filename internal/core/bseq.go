package core

import (
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
	// Exec receives one coarse task per mini-batch; normally a
	// taskrt.Runtime so mini-batches run on different cores.
	Exec taskrt.Executor

	subs []*Engine
}

// NewBSeq builds the baseline around an existing model. The model's
// MiniBatches field sets the data-parallel width.
func NewBSeq(m *Model, exec taskrt.Executor) *BSeq {
	s := &BSeq{M: m, Exec: exec}
	for i := 0; i < m.Cfg.MiniBatches; i++ {
		// Each sub-engine shares the parent's weights but sees its
		// mini-batch as its whole world, executed inline.
		lo, hi := m.Cfg.mbBounds(i)
		sub := m.Cfg
		sub.Batch, sub.MiniBatches = hi-lo, 1
		s.subs = append(s.subs, NewEngine(m.view(sub), taskrt.NewInline(nil)))
	}
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
	T := b.SeqLen()
	for i, sub := range s.subs {
		mb := b.sliceRows(s.M.Cfg.mbBounds(i))
		s.Exec.Submit(&taskrt.Task{
			Label: fmt.Sprintf("bseq mb%d", i),
			Kind:  "bseq",
			Fn: func() {
				wss := sub.workspaces(T)
				wss[0].resetForStep(sub.M, nil, i)
				wss[0].bindStep(mb, T)
				sub.emitForward(wss[0], i)
				sub.emitBackward(wss[0], i)
			},
		})
	}
	if err := s.Exec.Wait(); err != nil {
		return 0, err
	}

	// Combine mini-batch gradients into mini-batch 0's buffers in index
	// order — the same order Engine.emitReduce uses.
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
