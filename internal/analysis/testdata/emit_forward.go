// Fixture for the emitterbarrier pass. The basename matters: this file
// poses as a graph emitter, where full synchronization is forbidden.
package fixture

import "bpar/internal/taskrt"

func emitStageWithBarrier(rec *taskrt.Capture, ex taskrt.Executor, tasks []*taskrt.Task) {
	rec.SubmitAll(tasks)
	_ = ex.Wait() // want "Wait inside emitter emit_forward.go acts as a barrier"
}
