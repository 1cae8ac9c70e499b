package taskrt

import (
	"fmt"

	"bpar/internal/obs"
)

// RegisterMetrics exposes the runtime's live counters on reg under the
// bpar_sched_* families. Every series snapshots the atomics the scheduler
// already maintains for Stats — registration adds zero work to the replay and
// execute hot paths. Register each Runtime on at most one registry;
// duplicate registration panics on name collision.
func (r *Runtime) RegisterMetrics(reg *obs.Registry) {
	s := &r.stats
	reg.MustGaugeFunc("bpar_sched_workers",
		"Configured worker goroutines.", func() float64 { return float64(r.opts.Workers) })
	reg.MustCounterFunc("bpar_sched_tasks_submitted_total",
		"Tasks of replayed templates.", func() float64 { return float64(s.submitted.Load()) })
	reg.MustCounterFunc("bpar_sched_tasks_executed_total",
		"Tasks whose bodies finished executing.", func() float64 { return float64(s.executed.Load()) })
	reg.MustCounterFunc("bpar_sched_tasks_stolen_total",
		"Tasks stolen from peer deques.", func() float64 { return float64(s.steals.Load()) })
	reg.MustCounterFunc("bpar_sched_steal_fails_total",
		"Steal scans that found every peer deque empty.", func() float64 { return float64(s.stealFails.Load()) })
	reg.MustCounterFunc("bpar_sched_local_queue_hits_total",
		"Tasks served from the popping worker's own deque.", func() float64 { return float64(s.localHits.Load()) })
	reg.MustCounterFunc("bpar_sched_replays_total",
		"Frozen task-graph templates replayed (their tasks count as submitted).", func() float64 { return float64(s.replays.Load()) })
	reg.MustCounterFunc("bpar_sched_submit_seconds_total",
		"Time spent starting template replays: counter resets and root publication.", func() float64 { return float64(s.submitNS.Load()) / 1e9 })
	reg.MustCounterFunc("bpar_sched_complete_seconds_total",
		"Time spent in completion bookkeeping.", func() float64 { return float64(s.completeNS.Load()) / 1e9 })
	reg.MustCounterFunc("bpar_sched_task_seconds_total",
		"Wall time spent inside task bodies.", func() float64 { return float64(s.taskNS.Load()) / 1e9 })
	reg.MustGaugeFunc("bpar_sched_running_tasks",
		"Tasks currently executing.", func() float64 { return float64(s.running.Load()) })
	reg.MustGaugeFunc("bpar_sched_max_running_tasks",
		"Peak concurrently running tasks.", func() float64 { return float64(s.maxRunning.Load()) })
	reg.MustGaugeFunc("bpar_sched_outstanding_tasks",
		"Replayed tasks not yet completed.", func() float64 { return float64(r.outstanding.Load()) })
	reg.MustGaugeFunc("bpar_sched_idle_workers",
		"Workers currently parked with no runnable task.", func() float64 { return float64(r.idlers.Load()) })

	reg.MustGaugeFunc("bpar_sched_ready_queue_depth",
		"Tasks waiting on the global ready queue.",
		func() float64 { return float64(r.global.size.Load()) },
		"queue", "global")
	reg.MustGaugeFunc("bpar_sched_ready_queue_depth",
		"Tasks waiting on the global ready queue.",
		func() float64 {
			var n int64
			for i := range r.local {
				n += int64(r.local[i].size.Load())
			}
			return float64(n)
		},
		"queue", "local")

	for w := 0; w < r.opts.Workers; w++ {
		w := w
		reg.MustCounterFunc("bpar_sched_worker_idle_seconds_total",
			"Per-worker time parked with no runnable task, including the in-progress park.",
			func() float64 { return float64(r.workerIdleNS(w)) / 1e9 },
			"worker", fmt.Sprintf("%d", w))
	}
}
