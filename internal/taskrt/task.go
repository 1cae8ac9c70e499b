// Package taskrt is the run-time system software that B-Par executes on: a
// from-scratch substitute for the OmpSs task runtime used by the paper.
//
// A Task is a sequential piece of work annotated with the data it reads (In)
// and writes (Out/InOut), exactly like `#pragma omp task in(...) out(...)`.
// The runtime derives read-after-write, write-after-read and
// write-after-write edges from those annotations, dynamically building the
// task dependency graph as tasks are submitted, and schedules a task onto a
// worker as soon as its last dependency is satisfied. There are no barriers:
// synchronization exists only along data-dependency edges, which is the
// property that lets B-Par overlap forward-order cells, reverse-order cells,
// merge cells, and cells of different layers.
//
// Two scheduling policies are provided, mirroring the paper's Section IV-A:
//
//   - Breadth-first: a single global FIFO ready queue.
//   - Locality-aware: a task made ready by the completion of a predecessor is
//     placed on the ready queue of the worker that executed the predecessor,
//     since it will access data that predecessor just produced; idle workers
//     steal from the global queue and then from peers.
package taskrt

// Dep identifies a piece of data a task reads or writes. Any comparable
// value works; B-Par uses pointers to the tensors that cells produce and
// consume, so a dependency key is literally the address of the data, as in
// the paper's in(c_f[...]) / out(c_f[...]) pragma clauses.
type Dep any

// Task is one sequential piece of work together with its dependency
// annotations and the metadata used for tracing, cost modelling, and the
// locality study.
type Task struct {
	// Label names the task for traces, e.g. "fwd L2 t17 f" or "merge L0 t3".
	Label string
	// Kind classifies the task for cost modelling and statistics:
	// "lstm", "gru", "merge", "head", "grad", "reduce", ...
	Kind string
	// In lists data the task reads; Out lists data it writes; InOut both.
	In, Out, InOut []Dep
	// Fn is the sequential body (the FwdBwdComputations call of Algorithm 1).
	// It may be nil when a graph is only being recorded for simulation.
	Fn func()
	// Flops estimates the floating-point work of the body; used by the cost
	// model that drives the discrete-event simulator.
	Flops float64
	// WorkingSet estimates the bytes the body touches; used by the cache
	// locality model and the memory-consumption study.
	WorkingSet int64
}

// Executor abstracts where an emitted task graph runs: the native goroutine
// runtime (Runtime), an inline sequential executor, or a graph capture
// (Capture) feeding template replay and the discrete-event simulator. B-Par's builders emit the same task
// stream to any of them.
type Executor interface {
	// Submit registers the task and its dependencies. The task runs when its
	// dependencies are satisfied (possibly immediately, possibly never for a
	// record-only executor).
	Submit(t *Task)
	// Wait blocks until every submitted task has finished and returns the
	// task errors joined with errors.Join, or nil if none failed.
	Wait() error
}

// BatchSubmitter is implemented by executors that can register a whole
// batch of tasks under a single acquisition of their submission lock.
// Tasks are processed in slice order, so a batch derives the same
// dependency edges as the equivalent sequence of Submit calls.
type BatchSubmitter interface {
	SubmitAll(ts []*Task)
}

// SubmitBatch submits the tasks through e.SubmitAll when e supports
// batching, and falls back to one Submit call per task otherwise. Builders
// emit per-timestep and per-layer task batches through this helper so the
// parallel runtime amortizes locking while Inline keeps its simple per-task
// path.
func SubmitBatch(e Executor, ts []*Task) {
	if b, ok := e.(BatchSubmitter); ok {
		b.SubmitAll(ts)
		return
	}
	for _, t := range ts {
		e.Submit(t)
	}
}

// TaskRecord describes one executed task for a TraceSink.
type TaskRecord struct {
	ID         int
	Label      string
	Kind       string
	Worker     int
	SubmitNS   int64 // nanoseconds since runtime start
	StartNS    int64
	EndNS      int64
	Flops      float64
	WorkingSet int64
}

// TraceSink receives a record for every task an Inline executor completes,
// fresh or replayed. Timelines come from a ProfileSink.
type TraceSink interface {
	TaskDone(rec TaskRecord)
}

// ProfileSink receives template-replay timing callbacks from a Runtime; it
// is the profiling hook behind prof.GraphProfiler, scoped to frozen templates
// so implementations can accumulate into fixed-index arrays keyed by template
// node index with no maps or locks between tasks. The Runtime guarantees:
//
//   - ReplayStart(tpl) is called under the submission lock, strictly before
//     any of that replay's NodeDone callbacks — a safe registration point.
//   - NodeDone(tpl, idx, ...) is called exactly once per node per replay, by
//     the executing worker. Replays of one template never overlap, and the
//     runtime's completion atomics order one replay's writes before the
//     next's, so a per-node plain array written at idx is race-free.
//   - ReplayDone(tpl, atNS) is called by the worker retiring the replay's
//     final node, after its own NodeDone and with all peers' NodeDone writes
//     visible (the template's live counter is a single atomic every worker
//     decrements), and before Wait can observe the replay drained.
//
// Fresh-emission tasks never reach the sink.
type ProfileSink interface {
	ReplayStart(tpl *Template, atNS int64)
	NodeDone(tpl *Template, idx, worker int, startNS, endNS int64)
	ReplayDone(tpl *Template, atNS int64)
}
