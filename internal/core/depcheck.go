package core

import (
	"fmt"

	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// depChecker returns the executor's dependency sanitizer when it has one
// (taskrt.Runtime with Options.DepCheck), nil otherwise. Detected through an
// interface so Inline and test executors need no stub.
func (e *Engine) depChecker() *taskrt.DepChecker {
	if p, ok := e.Exec.(interface{ DepChecker() *taskrt.DepChecker }); ok {
		return p.DepChecker()
	}
	return nil
}

// installDepCheckHook routes kernel-level tensor accesses into the
// sanitizer. The hook is process-global; the engine whose executor runs
// depcheck owns it, so two concurrently training depcheck engines are not
// supported (sequential engines each re-install on construction).
func installDepCheckHook(dc *taskrt.DepChecker) {
	tensor.SetAccessHook(func(w any, reads []any) {
		if w != nil {
			dc.NoteWrite(w)
		}
		for _, r := range reads {
			if r != nil {
				dc.NoteRead(r)
			}
		}
	})
}

// regMats names the non-nil buffers ms under key k for the sanitizer.
func regMats[E tensor.Elt](dc *taskrt.DepChecker, k taskrt.Dep, name string, ms ...*tensor.Mat[E]) {
	bufs := make([]any, 0, len(ms))
	for _, m := range ms {
		if m != nil {
			bufs = append(bufs, m)
		}
	}
	dc.Register(k, name, bufs...)
}

// registerFwdDeps registers the forward buffers b of w under w's forward
// keys; tag distinguishes the element type in the sanitizer's names.
func registerFwdDeps[E tensor.Elt](dc *taskrt.DepChecker, w *workspace, b *fwdBufs[E], tag string, mbIdx int) {
	reg := func(k taskrt.Dep, name string, ms ...*tensor.Mat[E]) {
		regMats(dc, k, fmt.Sprintf("%s mb%d", name, mbIdx), ms...)
	}
	for l := range b.merged {
		for t := 0; t < w.T; t++ {
			if b.merged[l] != nil {
				reg(w.kMerged[l][t], fmt.Sprintf("merged%s L%d t%d", tag, l, t), b.merged[l][t])
			}
			for i := range w.dir {
				d := &w.dir[i]
				reg(d.kSt[l][t], fmt.Sprintf("%sSt%s L%d t%d", dirName[i], tag, l, t), b.st[i][l][t].mats()...)
				if b.pre[i] != nil {
					reg(d.kPre[l][t], fmt.Sprintf("pre%s%s L%d t%d", dirSuffix[i], tag, l, t), b.pre[i][l][t])
				}
			}
		}
	}
	reg(w.kFinalMerged, "finalMerged"+tag, b.finalMerged)
	for s := range w.kProbs {
		reg(w.kProbs[s], fmt.Sprintf("probs%s s%d", tag, s), b.probs[s], b.logits[s])
	}
}

// mats enumerates the state's activation matrices — everything the forward
// cell task writes under the state's dependency key, and the one list of a
// state's buffers that fitRows and the working-set figure also walk.
func (s *cellSt[E]) mats() []*tensor.Mat[E] {
	switch {
	case s.lstm != nil:
		return []*tensor.Mat[E]{s.lstm.Gates, s.lstm.C, s.lstm.TanhC, s.lstm.H}
	case s.gru != nil:
		return []*tensor.Mat[E]{s.gru.ZR, s.gru.RH, s.gru.HBar, s.gru.H}
	default:
		return []*tensor.Mat[E]{s.rnn.H}
	}
}

// registerStepInputs associates this step's input matrices with the kX keys.
// Batch views are new each step, so they register transiently and
// DepChecker.ResetStepOwners drops them after the step.
func (e *Engine) registerStepInputs(dc *taskrt.DepChecker, ws *workspace, mb *Batch, mbIdx int) {
	for t, x := range mb.X {
		dc.RegisterStep(ws.kX[t], fmt.Sprintf("x t%d mb%d", t, mbIdx), x)
	}
}
