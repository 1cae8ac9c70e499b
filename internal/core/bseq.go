package core

import (
	"fmt"

	"bpar/internal/taskrt"
	"bpar/internal/tensor"
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
	n := m.Cfg.MiniBatches
	s := &BSeq{M: m, Exec: exec}
	base := m.Cfg.Batch / n
	rem := m.Cfg.Batch % n
	for i := 0; i < n; i++ {
		rows := base
		if i < rem {
			rows++
		}
		// Each sub-engine shares the parent's weights but sees its
		// mini-batch as its whole world, executed inline.
		subM := &Model{Cfg: m.Cfg, fwd: m.fwd, rev: m.rev, Heads: m.Heads, mut: m.mut}
		subM.Cfg.Batch = rows
		subM.Cfg.MiniBatches = 1
		s.subs = append(s.subs, NewEngine(subM, taskrt.NewInline(nil)))
	}
	return s
}

// mbBounds mirrors Engine's mini-batch row split.
func (s *BSeq) mbBounds(i int) (lo, hi int) {
	n := s.M.Cfg.MiniBatches
	base := s.M.Cfg.Batch / n
	rem := s.M.Cfg.Batch % n
	for j := 0; j < i; j++ {
		lo += base
		if j < rem {
			lo++
		}
	}
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// TrainStep runs one data-parallel training step: one sequential coarse task
// per mini-batch, then a sequential gradient combine and SGD update.
// The result is bitwise identical to Engine.TrainStep with the same
// MiniBatches setting, because per-mini-batch computation and the reduction
// order are identical — only the available parallelism differs.
func (s *BSeq) TrainStep(b *Batch, lr float64) (float64, error) {
	T := len(b.X)
	if T == 0 {
		return 0, fmt.Errorf("core: empty batch")
	}
	for i, sub := range s.subs {
		i, sub := i, sub
		lo, hi := s.mbBounds(i)
		mb := &Batch{X: make([]*tensor.Matrix, T)}
		for t := range b.X {
			mb.X[t] = b.X[t].SliceRows(lo, hi)
		}
		if b.Targets != nil {
			mb.Targets = b.Targets[lo:hi]
		}
		if b.StepTargets != nil {
			mb.StepTargets = make([][]int, T)
			for t := range b.StepTargets {
				mb.StepTargets[t] = b.StepTargets[t][lo:hi]
			}
		}
		if b.Lens != nil {
			mb.Lens = b.Lens[lo:hi]
		}
		mb.Real = sliceReal(b.Real, lo, hi)
		s.Exec.Submit(&taskrt.Task{
			Label: fmt.Sprintf("bseq mb%d", i),
			Kind:  "bseq",
			Fn: func() {
				wss := sub.workspaces(T)
				wss[0].resetForStep()
				wss[0].bindStep(mb)
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
		for l := range w0.gradsFwd {
			w0.gradsFwd[l].addScaled(1, ws.gradsFwd[l])
			w0.gradsRev[l].addScaled(1, ws.gradsRev[l])
		}
		for h := range w0.headGrads {
			tensor.AxpyMatrix(w0.headGrads[h].DW, 1, ws.headGrads[h].DW)
			tensor.Axpy(1, ws.headGrads[h].DB, w0.headGrads[h].DB)
		}
	}

	scale := s.M.Cfg.lossScale(b)
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
