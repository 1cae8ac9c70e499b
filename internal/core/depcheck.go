package core

import (
	"fmt"

	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// depChecker returns the executor's dependency sanitizer when it has one
// (taskrt.Runtime with Options.DepCheck), nil otherwise. Detected through an
// interface so Recorder, Inline, and test executors need no stub.
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

// registerDeps tells the sanitizer which buffers each dependency key names,
// so an access to a buffer can be attributed to the key a task should have
// declared. Scratch buffers private to a single task body (dHSum*, dXScratch*,
// sinks, zeroH/C) stay unregistered: accesses to them are not attributable
// and therefore never reported.
func (w *workspace) registerDeps(dc *taskrt.DepChecker, mbIdx int) {
	if w.phantom {
		return
	}
	reg := func(k taskrt.Dep, name string, ms ...*tensor.Matrix) {
		regMats(dc, k, fmt.Sprintf("%s mb%d", name, mbIdx), ms...)
	}
	registerFwdDeps(dc, w, &w.fwdBufs, "", mbIdx)
	for l := range w.fwdSt {
		for t := range w.fwdSt[l] {
			if w.merged[l] != nil {
				reg(w.kDMerged[l][t], fmt.Sprintf("dMerged L%d t%d", l, t), w.dMerged[l][t])
			}
			reg(w.kDHMergeFwd[l][t], fmt.Sprintf("dHMergeFwd L%d t%d", l, t), w.dHMergeFwd[l][t])
			reg(w.kDHMergeRev[l][t], fmt.Sprintf("dHMergeRev L%d t%d", l, t), w.dHMergeRev[l][t])
			reg(w.kDHChainFwd[l][t], fmt.Sprintf("dHChainFwd L%d t%d", l, t), w.dHChainFwd[l][t])
			reg(w.kDCChainFwd[l][t], fmt.Sprintf("dCChainFwd L%d t%d", l, t), w.dCChainFwd[l][t])
			reg(w.kDHChainRev[l][t], fmt.Sprintf("dHChainRev L%d t%d", l, t), w.dHChainRev[l][t])
			reg(w.kDCChainRev[l][t], fmt.Sprintf("dCChainRev L%d t%d", l, t), w.dCChainRev[l][t])
			if w.split {
				reg(w.kDGatesFwd[l][t], fmt.Sprintf("dGatesFwd L%d t%d", l, t), w.dGatesFwd[l][t])
				reg(w.kDGatesRev[l][t], fmt.Sprintf("dGatesRev L%d t%d", l, t), w.dGatesRev[l][t])
			}
		}
		dwF, _ := w.gradsFwd[l].wData()
		dwR, _ := w.gradsRev[l].wData()
		reg(w.kGradsFwd[l], fmt.Sprintf("gradsFwd L%d", l), dwF)
		reg(w.kGradsRev[l], fmt.Sprintf("gradsRev L%d", l), dwR)
	}
	reg(w.kDFinalMerged, "dFinalMerged", w.dFinalMerged)
	reg(w.kDFinalHFwd, "dFinalHFwd", w.dFinalHFwd)
	reg(w.kDFinalHRev, "dFinalHRev", w.dFinalHRev)
	for h := range w.kHeadGrads {
		reg(w.kHeadGrads[h], fmt.Sprintf("headGrads h%d", h), w.headGrads[h].DW, w.dLogits[h])
	}
	if w.f32 != nil {
		// Registration is additive per buffer, so the float32 buffers share
		// the float64 buffers' keys — the graph has the identical topology
		// and a task may legally touch either representation of the value
		// its key names. Only the converted inputs get distinct keys (kX32),
		// because they are written by conv tasks that read kX.
		registerFwdDeps(dc, w, w.f32, "32", mbIdx)
		for t, x := range w.f32.x {
			regMats(dc, w.kX32[t], fmt.Sprintf("x32 t%d mb%d", t, mbIdx), x)
		}
	}
}

// registerFwdDeps registers the forward buffers b of w under w's forward
// keys; tag distinguishes the element type in the sanitizer's names.
func registerFwdDeps[E tensor.Elt](dc *taskrt.DepChecker, w *workspace, b *fwdBufs[E], tag string, mbIdx int) {
	reg := func(k taskrt.Dep, name string, ms ...*tensor.Mat[E]) {
		regMats(dc, k, fmt.Sprintf("%s mb%d", name, mbIdx), ms...)
	}
	for l := range b.fwdSt {
		for t := range b.fwdSt[l] {
			reg(w.kFwdSt[l][t], fmt.Sprintf("fwdSt%s L%d t%d", tag, l, t), b.fwdSt[l][t].mats()...)
			reg(w.kRevSt[l][t], fmt.Sprintf("revSt%s L%d t%d", tag, l, t), b.revSt[l][t].mats()...)
			if b.merged[l] != nil {
				reg(w.kMerged[l][t], fmt.Sprintf("merged%s L%d t%d", tag, l, t), b.merged[l][t])
			}
			if b.preFwd != nil {
				reg(w.kPreFwd[l][t], fmt.Sprintf("preFwd%s L%d t%d", tag, l, t), b.preFwd[l][t])
				reg(w.kPreRev[l][t], fmt.Sprintf("preRev%s L%d t%d", tag, l, t), b.preRev[l][t])
			}
		}
	}
	reg(w.kFinalMerged, "finalMerged"+tag, b.finalMerged)
	for s := range w.kProbs {
		reg(w.kProbs[s], fmt.Sprintf("probs%s s%d", tag, s), b.probs[s], b.logits[s])
	}
}

// mats enumerates the state's activation matrices — everything the forward
// cell task writes under the state's dependency key.
func (s *cellSt[E]) mats() []*tensor.Mat[E] {
	switch {
	case s.lstm != nil:
		return []*tensor.Mat[E]{s.lstm.Z, s.lstm.Gates, s.lstm.C, s.lstm.TanhC, s.lstm.H}
	case s.gru != nil:
		return []*tensor.Mat[E]{s.gru.Z1, s.gru.Z2, s.gru.ZR, s.gru.RH, s.gru.HBar, s.gru.H}
	default:
		return []*tensor.Mat[E]{s.rnn.Z, s.rnn.H}
	}
}

// registerStepInputs associates this step's input matrices with the kX keys.
// Batch views are new each step, so they register transiently and are
// dropped after the step — by ResetDeps on the fresh-emission path, by
// DepChecker.ResetStepOwners on the replay path.
func (e *Engine) registerStepInputs(dc *taskrt.DepChecker, ws *workspace, mb *Batch, mbIdx int) {
	for t, x := range mb.X {
		dc.RegisterStep(ws.kX[t], fmt.Sprintf("x t%d mb%d", t, mbIdx), x)
	}
}
