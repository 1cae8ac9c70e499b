// Fixture for the emitterbarrier pass. The basename matters: this file
// poses as a graph emitter, where full synchronization is forbidden.
package fixture

import "bpar/internal/taskrt"

func emitStageWithBarrier(rt *taskrt.Runtime, tasks []*taskrt.Task) {
	for _, t := range tasks {
		rt.Submit(t)
	}
	_ = rt.Wait() // want "Wait inside emitter emit_forward.go acts as a barrier"
}
