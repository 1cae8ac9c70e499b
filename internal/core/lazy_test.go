package core

import (
	"fmt"
	"slices"
	"testing"

	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// trainingState reports, per buffer family of the training half, whether ws
// holds it: the backward key grids, the final-merge gradients, the per-layer
// backward scratch and dw stacks, the weight gradients and the head scratch.
func trainingState(ws *workspace) map[string]bool {
	held := make(map[string]bool)
	note := func(name string, present bool) { held[name] = present }
	for _, g := range ws.keyGrids {
		if g.bufs != nil {
			note(g.name, *g.bufs != nil)
		}
	}
	note("dFinalMerged", ws.dFinalMerged != nil)
	for i := range ws.dir {
		d, sfx := &ws.dir[i], dirSuffix[i]
		note("dFinalH"+sfx, d.dFinalH != nil)
		note("grads"+sfx, d.grads != nil)
		note("stackP"+sfx, d.stackP != nil)
		note("stackB"+sfx, d.stackB != nil)
		note("dHSum"+sfx, d.dHSum != nil)
		note("sinks"+sfx, d.dHSink != nil || d.dCSink != nil)
	}
	for j, g := range ws.grads {
		note(fmt.Sprintf("grads catalogue %d", j), g.W != nil || g.B != nil)
	}
	note("headGrads", ws.headGrads != nil)
	note("dLogits", ws.dLogits != nil)
	return held
}

// TestInferAllocatesNoTrainingState: forward-only steps on a fresh engine
// build the forward half only — no gradient, dw stack or backward grid
// buffer, and on a float32 engine no float64 state, preload or merge
// buffer either — and WorkingSetBytes still prices a training step without
// building its buffers. The first training step then builds all of it.
func TestInferAllocatesNoTrainingState(t *testing.T) {
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		cfg := multiHeadCfg(LSTM, 2)
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(m, taskrt.NewInline(nil))
		e.InferDType = dt
		b := makeMultiBatch(cfg, 3, true)
		if _, _, err := e.InferProbs(b); err != nil {
			t.Fatal(err)
		}
		ws0 := e.WorkingSetBytes(cfg.SeqLen)
		for i, ws := range e.workspaces(cfg.SeqLen) {
			for name, held := range trainingState(ws) {
				if held {
					t.Errorf("%v mb%d: inference allocated %s", dt, i, name)
				}
			}
			f64 := ws.st[fwdDir] != nil || ws.st[revDir] != nil || ws.pre[fwdDir] != nil || ws.pre[revDir] != nil || ws.merged != nil
			if f64 != (dt == tensor.F64) {
				t.Errorf("%v mb%d: float64 forward buffers allocated = %v", dt, i, f64)
			}
		}
		if _, err := e.TrainStep(b, 0.05); err != nil {
			t.Fatal(err)
		}
		for i, ws := range e.workspaces(cfg.SeqLen) {
			for name, held := range trainingState(ws) {
				if !held {
					t.Errorf("%v mb%d: a training step did not allocate %s", dt, i, name)
				}
			}
			if ws.st[fwdDir] == nil {
				t.Errorf("%v mb%d: a training step built no float64 forward buffers", dt, i)
			}
		}
		if got := e.WorkingSetBytes(cfg.SeqLen); got != ws0 {
			t.Errorf("%v: WorkingSetBytes %d after training, %d before", dt, got, ws0)
		}
	}
}

// snapshotGrads deep-copies a workspace's gradient catalogue.
func snapshotGrads(ws *workspace) [][]float64 {
	var out [][]float64
	for _, g := range ws.grads {
		out = append(out, slices.Clone(g.W.Data), slices.Clone(g.B))
	}
	return out
}

// TestInferKeepsGradients: a forward-only step touches no training state, so
// on an engine that trains and evaluates the last training step's gradients
// survive an inference bitwise.
func TestInferKeepsGradients(t *testing.T) {
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		cfg := multiHeadCfg(GRU, 2)
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(m, taskrt.NewInline(nil))
		e.InferDType = dt
		if _, err := e.TrainStep(makeMultiBatch(cfg, 5, true), 0.05); err != nil {
			t.Fatal(err)
		}
		wss := e.workspaces(cfg.SeqLen)
		var before [][][]float64
		for _, ws := range wss {
			before = append(before, snapshotGrads(ws))
		}
		if _, _, err := e.InferProbs(makeMultiBatch(cfg, 6, false)); err != nil {
			t.Fatal(err)
		}
		for i, ws := range wss {
			for j, g := range snapshotGrads(ws) {
				if !slices.Equal(g, before[i][j]) {
					t.Fatalf("%v mb%d: inference changed gradient catalogue slice %d", dt, i, j)
				}
			}
		}
	}
}
