// Package taskrt is the run-time system software that B-Par executes on: a
// from-scratch substitute for the OmpSs task runtime used by the paper.
//
// A Task is a sequential piece of work annotated with the data it reads (In)
// and writes (Out/InOut), exactly like `#pragma omp task in(...) out(...)`.
// A Capture derives read-after-write, write-after-read and write-after-write
// edges from those annotations as tasks are submitted, as OmpSs does, and
// freezes the graph into a Template. Capture is the only submission point:
// the runtime derives no edges, it replays Templates, scheduling a task onto
// a worker as soon as its last dependency is satisfied. B-Par's
// graphs have no barriers: synchronization exists only along data-dependency
// edges, which is the property that lets B-Par overlap forward-order cells,
// reverse-order cells, merge cells, and cells of different layers.
//
// The runtime runs the paper's breadth-first scheduler (Section IV-A): one
// global FIFO ready queue that roots and readied successors join and every
// worker pops. The paper's locality-aware policy is an L3/NUMA effect at 48
// cores; the simulator (internal/sim) models it, the runtime does not.
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

// Executor runs frozen task graphs: the native goroutine runtime (Runtime)
// or the inline sequential executor (Inline). Builders never submit to an
// executor; they submit into a Capture, freeze it once, and replay the
// Template on any executor, which derives no edges at run time.
type Executor interface {
	// Replay starts one execution of the template. Replays of the same
	// template must not overlap: Wait between them.
	Replay(tpl *Template)
	// Wait blocks until every replayed task has finished and returns the
	// task errors joined with errors.Join, or nil if none failed.
	Wait() error
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

// TraceSink receives a record for every task an Inline executor completes.
// Timelines come from a ProfileSink.
type TraceSink interface {
	TaskDone(rec TaskRecord)
}

// ProfileSink receives template-replay timing callbacks from a Runtime; it
// is the profiling hook behind prof.GraphProfiler, scoped to frozen templates
// so implementations can accumulate into fixed-index arrays keyed by template
// node index with no maps or locks between tasks. The Runtime guarantees:
//
//   - ReplayStart(tpl) is called by the goroutine that calls Replay, strictly
//     before any of that replay's NodeDone callbacks — a safe registration
//     point. Replays of distinct templates may call it concurrently.
//   - NodeDone(tpl, idx, ...) is called exactly once per node per replay, by
//     the executing worker. Replays of one template never overlap, and the
//     runtime's completion atomics order one replay's writes before the
//     next's, so a per-node plain array written at idx is race-free.
//   - ReplayDone(tpl, atNS) is called by the worker retiring the replay's
//     final node, after its own NodeDone and with all peers' NodeDone writes
//     visible (the template's live counter is a single atomic every worker
//     decrements), and before Wait can observe the replay drained. atNS is
//     read then, so it is no earlier than any of the replay's endNS.
type ProfileSink interface {
	ReplayStart(tpl *Template, atNS int64)
	NodeDone(tpl *Template, idx, worker int, startNS, endNS int64)
	ReplayDone(tpl *Template, atNS int64)
}
