package taskrt

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bpar/internal/obs"
)

// Policy is ignored: the runtime has one scheduler, the paper's
// breadth-first FIFO ready queue. It and LocalityAware remain only because
// bench/ still names them (ROADMAP 1(f)).
type Policy int

// LocalityAware is ignored; see Policy.
const LocalityAware Policy = 1

// Options configures a Runtime.
type Options struct {
	// Workers is the number of worker goroutines ("cores"). Must be >= 1.
	Workers int
	// Policy is ignored; see Policy.
	Policy Policy
	// Profile, when non-nil, receives per-node timing callbacks for every
	// template replay. The callbacks are wired so a sink can use plain
	// fixed-index arrays keyed by template node index — see the ProfileSink
	// contract.
	Profile ProfileSink
	// DepCheck enables the runtime dependency sanitizer: shadow versions per
	// key, undeclared-access detection via registered buffers, and
	// self-dependency rejection. Task bodies are serialized while enabled,
	// so it is a correctness mode, not a performance mode.
	DepCheck bool
}

// node is one task of a frozen Template. Its successor list was fixed at
// Freeze, so completion reads it without a lock; tpl and idx, the owning
// template and the node's index in it, let a ProfileSink accumulate timings
// into fixed-index arrays with no per-task map lookups.
type node struct {
	task *Task

	// pending is the unsatisfied-dependency count. Replay resets it to the
	// frozen in-degree; the predecessor whose decrement reaches zero
	// enqueues the node.
	pending atomic.Int32

	succs []*node
	tpl   *Template
	idx   int32
}

// queue is the locked slice-backed FIFO ready queue. An atomic length
// snapshot lets the queue-depth metric read it without taking the lock.
type queue struct {
	mu    sync.Mutex
	items []*node
	head  int
	size  atomic.Int32
}

func (q *queue) pushBatch(ns []*node) {
	if len(ns) == 0 {
		return
	}
	q.mu.Lock()
	q.items = append(q.items, ns...)
	q.size.Store(int32(len(q.items) - q.head))
	q.mu.Unlock()
}

func (q *queue) popHead() *node {
	q.mu.Lock()
	if q.head >= len(q.items) {
		q.mu.Unlock()
		return nil
	}
	n := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	// Reclaim space once the queue drains far enough.
	if q.head > 1024 && q.head*2 >= len(q.items) {
		q.items = append(q.items[:0], q.items[q.head:]...)
		q.head = 0
	}
	q.size.Store(int32(len(q.items) - q.head))
	q.mu.Unlock()
	return n
}

// Runtime executes frozen task graphs (Templates) on a pool of worker
// goroutines. It derives no edges: Capture did that once, so Replay only
// resets in-degree counters and publishes the roots. Every ready task joins
// one FIFO queue behind a small lock, the paper's breadth-first scheduler;
// the rest of completion bookkeeping is atomics.
type Runtime struct {
	opts  Options
	start time.Time

	ready queue

	outstanding atomic.Int64
	shutdownFlg atomic.Bool

	// Idle workers park on idleCond. wakeups is a latched signal count so a
	// wake issued between a worker's last queue scan and its sleep is never
	// lost; idlers lets producers skip the lock when nobody is parked.
	idleMu   sync.Mutex
	idleCond *sync.Cond
	wakeups  int
	idlers   atomic.Int32

	// Wait parks on doneCond; the completion that drains outstanding to zero
	// broadcasts, and only when doneWaiters says someone is listening.
	doneMu      sync.Mutex
	doneCond    *sync.Cond
	doneWaiters atomic.Int32

	errsMu sync.Mutex
	errs   []error

	// depc is the dependency sanitizer, non-nil iff Options.DepCheck.
	depc *DepChecker

	wg sync.WaitGroup

	stats runtimeStats
}

// runtimeStats holds the contended counters behind Stats as atomics.
type runtimeStats struct {
	submitted  atomic.Int64
	executed   atomic.Int64
	taskNS     atomic.Int64
	submitNS   atomic.Int64
	completeNS atomic.Int64
	replays    atomic.Int64
	running    atomic.Int32
	maxRunning atomic.Int32

	workerIdleNS []atomic.Int64
	// idleSince[w] is the ns-since-start timestamp at which worker w parked
	// (0 = not parked), so Stats can charge in-progress idleness.
	idleSince []atomic.Int64
}

// New creates a runtime with the given options and starts its workers.
// Call Shutdown when done with it.
func New(opts Options) *Runtime {
	if opts.Workers < 1 {
		panic(fmt.Sprintf("taskrt: Workers must be >= 1, got %d", opts.Workers))
	}
	r := &Runtime{
		opts:  opts,
		start: time.Now(),
	}
	if opts.DepCheck {
		r.depc = newDepChecker()
	}
	r.idleCond = sync.NewCond(&r.idleMu)
	r.doneCond = sync.NewCond(&r.doneMu)
	r.stats.workerIdleNS = make([]atomic.Int64, opts.Workers)
	r.stats.idleSince = make([]atomic.Int64, opts.Workers)
	r.wg.Add(opts.Workers)
	for w := 0; w < opts.Workers; w++ {
		go r.worker(w)
	}
	obs.Logger("taskrt").Debug("runtime started", "workers", opts.Workers)
	return r
}

// DepChecker returns the runtime's dependency sanitizer, or nil when
// Options.DepCheck is off. Callers register buffer-to-key associations on it
// so undeclared accesses can be attributed.
func (r *Runtime) DepChecker() *DepChecker { return r.depc }

// SubmitAll captures ts, freezes the capture and replays the template, so
// its tasks are ordered among themselves only, like one Replay. It remains
// for bench's taskrt.submit probe; other code captures once and replays.
func (r *Runtime) SubmitAll(ts []*Task) {
	c := NewCapture()
	c.SubmitAll(ts)
	r.Replay(c.Freeze())
}

// wake makes up to k parked workers rescan the ready queue. The wakeups
// counter latches signals issued while a worker is between its last scan and
// its cond wait, so no wake is lost. It never exceeds the idle workers: a
// latched signal beyond them would only send a worker round awaitWork
// again instead of letting it park.
func (r *Runtime) wake(k int) {
	if k <= 0 || r.idlers.Load() == 0 {
		return
	}
	r.idleMu.Lock()
	r.wakeups = min(r.wakeups+k, int(r.idlers.Load()))
	if k == 1 {
		r.idleCond.Signal()
	} else {
		r.idleCond.Broadcast()
	}
	r.idleMu.Unlock()
}

// worker is the body of each worker goroutine.
func (r *Runtime) worker(w int) {
	defer r.wg.Done()
	for {
		n := r.ready.popHead()
		if n == nil {
			n = r.awaitWork(w)
			if n == nil { // shutdown with no work left
				return
			}
		}
		run := r.stats.running.Add(1)
		for {
			m := r.stats.maxRunning.Load()
			if run <= m || r.stats.maxRunning.CompareAndSwap(m, run) {
				break
			}
		}
		r.execute(n, w)
	}
}

// awaitWork parks worker w until a task arrives or shutdown. It accounts
// the parked time to the worker's idle counter.
func (r *Runtime) awaitWork(w int) *node {
	idleStart := time.Now()
	since := idleStart.Sub(r.start).Nanoseconds()
	if since == 0 {
		since = 1
	}
	r.stats.idleSince[w].Store(since)
	defer func() {
		r.stats.workerIdleNS[w].Add(time.Since(idleStart).Nanoseconds())
		r.stats.idleSince[w].Store(0)
	}()
	for {
		r.idlers.Add(1)
		// Rescan after registering as idle: a producer that enqueued before
		// seeing us idle is now guaranteed visible to this scan.
		if n := r.ready.popHead(); n != nil {
			r.idlers.Add(-1)
			return n
		}
		if r.shutdownFlg.Load() {
			r.idlers.Add(-1)
			return nil
		}
		r.idleMu.Lock()
		for r.wakeups == 0 && !r.shutdownFlg.Load() {
			r.idleCond.Wait()
		}
		if r.wakeups > 0 {
			r.wakeups--
		}
		r.idleMu.Unlock()
		r.idlers.Add(-1)
		if n := r.ready.popHead(); n != nil {
			return n
		}
		if r.shutdownFlg.Load() {
			return nil
		}
	}
}

// execute runs a task body, then performs completion bookkeeping: marking
// successors ready and, on a full drain, waking Wait. No global lock is
// involved.
func (r *Runtime) execute(n *node, w int) {
	if r.depc != nil {
		// begin blocks until no other checked body runs; end always follows,
		// even when the body panics (the recover below returns normally).
		r.depc.begin(n.task)
	}
	startT := time.Now()
	var taskErr error
	if n.task.Fn != nil {
		func() {
			defer func() {
				if p := recover(); p != nil {
					taskErr = fmt.Errorf("taskrt: task %q panicked: %v", n.task.Label, p)
				}
			}()
			n.task.Fn()
		}()
	}
	endT := time.Now()
	if r.depc != nil {
		r.depc.end(n.task)
	}

	if p := r.opts.Profile; p != nil {
		p.NodeDone(n.tpl, int(n.idx), w, startT.Sub(r.start).Nanoseconds(), endT.Sub(r.start).Nanoseconds())
	}

	r.stats.running.Add(-1)
	r.stats.executed.Add(1)
	r.stats.taskNS.Add(endT.Sub(startT).Nanoseconds())
	if taskErr != nil {
		r.errsMu.Lock()
		r.errs = append(r.errs, taskErr)
		r.errsMu.Unlock()
	}

	readied := make([]*node, 0, 8) // on the stack: pushBatch copies it
	for _, s := range n.succs {
		if s.pending.Add(-1) == 0 {
			readied = append(readied, s)
		}
	}
	if len(readied) > 0 {
		r.ready.pushBatch(readied)
		// This worker loops and picks one task itself; wake peers for the rest.
		r.wake(len(readied) - 1)
	}
	// The final decrement sees every peer's node timings (each peer's writes
	// are released by its own Add on the same atomic), so ReplayDone may read
	// all per-node arrays, and a clock read after it follows every node's end.
	// It fires before this node's outstanding decrement: once Wait returns,
	// the sink has fully observed the replay.
	if n.tpl.live.Add(-1) == 0 && r.opts.Profile != nil {
		r.opts.Profile.ReplayDone(n.tpl, time.Since(r.start).Nanoseconds())
	}
	// Only a full drain satisfies Wait. A waiter registers in doneWaiters
	// before it checks outstanding under doneMu, so either it sees zero or
	// this load sees it and the broadcast reaches it.
	if r.outstanding.Add(-1) == 0 && r.doneWaiters.Load() > 0 {
		r.doneMu.Lock()
		r.doneCond.Broadcast()
		r.doneMu.Unlock()
	}
	r.stats.completeNS.Add(time.Since(endT).Nanoseconds())
}

// Wait blocks until every replayed task has completed, then returns the
// joined errors of the tasks completed since the last Wait (nil if none) and
// clears them. The runtime remains usable afterwards: replay again.
func (r *Runtime) Wait() error {
	if r.outstanding.Load() > 0 {
		r.doneWaiters.Add(1)
		r.doneMu.Lock()
		for r.outstanding.Load() > 0 {
			r.doneCond.Wait()
		}
		r.doneMu.Unlock()
		r.doneWaiters.Add(-1)
	}
	r.errsMu.Lock()
	if r.depc != nil {
		r.errs = append(r.errs, r.depc.take()...)
	}
	err := errors.Join(r.errs...)
	r.errs = nil
	r.errsMu.Unlock()
	return err
}

// Shutdown waits for outstanding work, then stops all workers. The runtime
// must not be used afterwards.
func (r *Runtime) Shutdown() {
	_ = r.Wait()
	r.shutdownFlg.Store(true)
	r.idleMu.Lock()
	r.idleCond.Broadcast()
	r.idleMu.Unlock()
	r.wg.Wait()
	st := r.Stats()
	obs.Logger("taskrt").Debug("runtime shut down",
		"executed", st.Executed, "overhead_ratio", st.OverheadRatio(),
		"idle", time.Duration(st.IdleNS()))
}

// Stats returns a snapshot of runtime counters. Workers currently parked
// are charged their in-progress idle time, so idle counters are meaningful
// mid-run, not only after Shutdown.
func (r *Runtime) Stats() Stats {
	s := Stats{
		Submitted:  r.stats.submitted.Load(),
		Executed:   r.stats.executed.Load(),
		TaskNS:     r.stats.taskNS.Load(),
		SubmitNS:   r.stats.submitNS.Load(),
		CompleteNS: r.stats.completeNS.Load(),
		MaxRunning: int(r.stats.maxRunning.Load()),
		Replays:    r.stats.replays.Load(),
	}
	s.WorkerIdleNS = make([]int64, len(r.stats.workerIdleNS))
	for w := range s.WorkerIdleNS {
		s.WorkerIdleNS[w] = r.workerIdleNS(w)
	}
	return s
}

// workerIdleNS is worker w's parked time so far, the in-progress park
// included. Stats and the per-worker idle metric both read it.
func (r *Runtime) workerIdleNS(w int) int64 {
	v := r.stats.workerIdleNS[w].Load()
	if since := r.stats.idleSince[w].Load(); since != 0 {
		if now := time.Since(r.start).Nanoseconds(); now > since {
			v += now - since
		}
	}
	return v
}

// ResetDeps does nothing: the runtime keeps no dependency table, since
// every Replay (and so every SubmitAll) is ordered among its own tasks only.
// It remains for bench's taskrt.submit probe.
func (r *Runtime) ResetDeps() {}

// Stats aggregates runtime counters. SubmitNS and CompleteNS together are
// the runtime's bookkeeping overhead; the paper reports this overhead to be
// ten times smaller than time spent in task bodies (TaskNS).
type Stats struct {
	Submitted  int64 // tasks of every replay
	Executed   int64
	TaskNS     int64 // total wall time inside task bodies
	SubmitNS   int64 // time spent starting replays: counter resets, root publication
	CompleteNS int64 // time spent in completion bookkeeping
	MaxRunning int   // peak concurrently running tasks
	Replays    int64 // template replays executed (Submitted counts their tasks)
	// LocalHits and Steals are always zero: there are no per-worker queues
	// to hit or steal from. They remain only because bench/ still reads
	// them (ROADMAP 1(f)).
	LocalHits, Steals int64
	// WorkerIdleNS is the per-worker time spent parked with no runnable
	// task, one entry per worker.
	WorkerIdleNS []int64
}

// IdleNS returns total worker idle time across all workers.
func (s Stats) IdleNS() int64 {
	var t int64
	for _, v := range s.WorkerIdleNS {
		t += v
	}
	return t
}

// OverheadRatio returns (replay start+complete time) / task body time; the
// paper's granularity study keeps this well under 0.1.
func (s Stats) OverheadRatio() float64 {
	if s.TaskNS == 0 {
		return 0
	}
	return float64(s.SubmitNS+s.CompleteNS) / float64(s.TaskNS)
}
