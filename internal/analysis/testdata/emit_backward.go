// Fixture for the stalecapture pass. The basename matters: this file poses
// as a graph emitter, whose task bodies are frozen into replayable templates,
// so per-step state must only be read inside task closures.
package fixture

import "bpar/internal/taskrt"

// Batch stands in for core.Batch: the per-step data an engine binds before
// each replay.
type Batch struct {
	X []float64
}

type binding struct {
	x []float64
}

type workspace struct {
	bind binding
	buf  []float64
}

func emitReadsBindingAtEmission(rec *taskrt.Capture, ws *workspace) {
	x := ws.bind.x // want "per-step binding read at emission time in emit_backward.go"
	rec.Submit(&taskrt.Task{Label: "stale", Fn: func() { _ = x }})
}

func emitCapturesBatch(rec *taskrt.Capture, ws *workspace, mb *Batch) {
	rec.Submit(&taskrt.Task{
		Label: "stale",
		Fn: func() {
			copy(ws.buf, mb.X) // want "task closure captures per-step batch \"mb\""
		},
	})
}

func emitReadsBindingInBody(rec *taskrt.Capture, ws *workspace) {
	// Correct: the binding is dereferenced when the body runs, so every
	// replay sees the batch bound for its own step.
	rec.Submit(&taskrt.Task{Label: "ok", Fn: func() { _ = ws.bind.x }})
}

func emitBatchOutsideClosure(ws *workspace, mb *Batch) {
	// Emission-time Batch reads are capture-time-only work (shape checks,
	// slicing); only closures freezing a Batch are stale.
	_ = len(mb.X)
}
