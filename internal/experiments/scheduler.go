package experiments

import (
	"io"
	"runtime"
	"sync/atomic"

	"bpar/internal/taskrt"
)

// SchedulerRow is one configuration of the scheduler contention study.
type SchedulerRow struct {
	Policy   taskrt.Policy
	Batched  bool // SubmitAll vs one Submit per task
	Workers  int
	Tasks    int64
	Overhead float64 // Stats.OverheadRatio()
	// Contention/idle observability from the de-serialized scheduler.
	LockWaitNS int64
	IdleNS     int64
	Steals     int64
	StealFails int64
}

// RunScheduler measures the runtime's own scheduling machinery under the
// worst case for a task runtime: a flood of very small tasks forming many
// short independent chains, where submit/complete bookkeeping — not task
// bodies — dominates. It exercises both policies and both submission APIs
// and reports the runtime's contention counters: submission-lock wait,
// steals, failed steals and idle time.
func RunScheduler(o Opts) ([]SchedulerRow, error) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	const chains = 64
	depth := o.seq(100)

	// One stable pointer key per chain. Value-typed keys (the ints this
	// originally used) are matched by boxed equality: they collide with any
	// other int key in the graph and allocate on every Submit, and bpar-vet's
	// depkey pass rejects them.
	chainKeys := make([]*int, chains)
	for i := range chainKeys {
		chainKeys[i] = new(int)
	}

	var rows []SchedulerRow
	for _, policy := range []taskrt.Policy{taskrt.BreadthFirst, taskrt.LocalityAware} {
		for _, batched := range []bool{false, true} {
			rt := taskrt.New(taskrt.Options{Workers: workers, Policy: policy})
			var sum atomic.Int64
			var batch []*taskrt.Task
			for d := 0; d < depth; d++ {
				for c := 0; c < chains; c++ {
					t := &taskrt.Task{
						Kind:  "tiny",
						InOut: []taskrt.Dep{chainKeys[c]},
						Fn:    func() { sum.Add(1) },
					}
					if batched {
						batch = append(batch, t)
					} else {
						rt.Submit(t)
					}
				}
				if batched {
					rt.SubmitAll(batch)
					batch = batch[:0]
				}
			}
			if err := rt.Wait(); err != nil {
				rt.Shutdown()
				return nil, err
			}
			st := rt.Stats()
			rt.Shutdown()
			rows = append(rows, SchedulerRow{
				Policy: policy, Batched: batched, Workers: workers,
				Tasks:      st.Executed,
				Overhead:   st.OverheadRatio(),
				LockWaitNS: st.LockWaitNS,
				IdleNS:     st.IdleNS(),
				Steals:     st.Steals,
				StealFails: st.StealFails,
			})
		}
	}
	return rows, nil
}

// PrintScheduler renders the scheduler contention study.
func PrintScheduler(w io.Writer, rows []SchedulerRow) {
	fprintf(w, "Scheduler contention study — %d tiny-task chains, %d workers\n", 64, rows[0].Workers)
	fprintf(w, "%-15s %-8s %8s %10s %12s %12s %8s %10s\n",
		"policy", "submit", "tasks", "overhead", "lockwait-us", "idle-us", "steals", "stealfail")
	for _, r := range rows {
		mode := "single"
		if r.Batched {
			mode = "batch"
		}
		fprintf(w, "%-15s %-8s %8d %10.4f %12.1f %12.1f %8d %10d\n",
			r.Policy, mode, r.Tasks, r.Overhead,
			float64(r.LockWaitNS)/1e3, float64(r.IdleNS)/1e3, r.Steals, r.StealFails)
	}
}
