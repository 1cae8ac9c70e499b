package taskrt

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Capture records a submission sequence instead of executing it, and is the
// only place tasks are submitted. It derives RAW/WAR/WAW edges with the
// package's one dependency table, starting empty; Freeze turns the sequence
// into a Template any Executor replays, and Graph hands the same derived
// edges, barriers included, to the simulator.
//
// Capture is not safe for concurrent use; builders submit from one goroutine.
type Capture struct {
	// NoReduce disables the transitive reduction Freeze applies by default,
	// freezing the raw derived edge set instead. Replays of a reduced and an
	// unreduced freeze of the same sequence are equivalent (the reduction
	// preserves the transitive closure, hence every happens-before
	// constraint); the flag exists for edge-set diffing and A/B benchmarks.
	NoReduce bool

	tasks []*Task
	preds [][]int  // per task, derived predecessors in discovery order
	data  [][]bool // parallel to preds: the edge is RAW (carries data)
	deps  depTable
	// lastBarrier is the index of the latest Barrier node, -1 before one.
	lastBarrier int
	frozen      bool
}

// NewCapture returns an empty capture with an empty dependency view.
func NewCapture() *Capture {
	return &Capture{deps: newDepTable(), lastBarrier: -1}
}

// Submit records the task and derives its dependency edges; after a Barrier
// the barrier node comes first among them.
func (c *Capture) Submit(t *Task) {
	if c.frozen {
		panic(fmt.Sprintf("taskrt: Submit of task %q on a frozen Capture", t.Label))
	}
	id := len(c.tasks)
	c.tasks = append(c.tasks, t)
	var preds []int
	var data []bool
	add := func(p int, d bool) {
		preds = append(preds, p)
		data = append(data, d)
	}
	if c.lastBarrier >= 0 {
		add(c.lastBarrier, false)
	}
	c.deps.derive(t, id, add)
	c.preds = append(c.preds, preds)
	c.data = append(c.data, data)
}

// Barrier records a synchronization point: a zero-cost "barrier" node that
// depends on every node submitted since the previous barrier and that every
// later node depends on. It models the per-layer barriers of framework-style
// execution so the simulator can contrast them with B-Par's barrier-free
// graphs.
func (c *Capture) Barrier() {
	id := len(c.tasks)
	var preds []int
	for p := c.lastBarrier + 1; p < id; p++ {
		preds = append(preds, p)
	}
	c.tasks = append(c.tasks, &Task{Label: "barrier", Kind: "barrier"})
	c.preds = append(c.preds, preds)
	c.data = append(c.data, make([]bool, len(preds)))
	c.lastBarrier = id
}

// Graph returns the full derived graph of the submissions so far — every
// RAW/WAR/WAW and barrier edge, before the transitive reduction Freeze
// applies. Node IDs are submission order, which is topological.
func (c *Capture) Graph() *Graph { return LinkGraph(taskNodes(c.tasks), c.preds, c.data) }

// SubmitAll records a batch in order.
func (c *Capture) SubmitAll(ts []*Task) {
	for _, t := range ts {
		c.Submit(t)
	}
}

// Freeze converts the captured sequence into an immutable Template and
// invalidates the capture for further submissions. Node storage is one flat
// slice and all successor lists live in a single shared arena, so a replay
// touches contiguous memory and allocates nothing.
//
// Unless NoReduce is set, Freeze emits the transitive reduction of the
// derived DAG: an edge p→i is dropped when another predecessor q of i is
// already reachable from p, because the q-path enforces the same ordering.
// The reduction preserves the transitive closure exactly — every
// happens-before constraint of the full edge set still holds, so a reduced
// replay runs the same schedule-legal executions (and the same
// floating-point summation order) while decrementing fewer in-degree
// counters per replay.
func (c *Capture) Freeze() *Template {
	c.frozen = true
	n := len(c.tasks)
	fullEdges := 0
	for _, preds := range c.preds {
		fullEdges += len(preds)
	}
	kept := c.preds
	if !c.NoReduce {
		kept = reducePreds(kept)
	}
	tpl := &Template{
		tasks:       c.tasks,
		initPending: make([]int32, n),
		nodes:       make([]node, n),
		preds:       make([][]int32, n),
		fullEdges:   fullEdges,
	}
	for id, preds := range kept {
		ps := make([]int32, len(preds))
		for j, p := range preds {
			ps[j] = int32(p)
		}
		tpl.preds[id] = ps
	}

	counts := make([]int, n)
	total := 0
	for _, preds := range kept {
		for _, p := range preds {
			counts[p]++
			total++
		}
	}
	arena := make([]*node, total)
	succs := make([][]*node, n)
	off := 0
	for i := 0; i < n; i++ {
		succs[i] = arena[off : off : off+counts[i]]
		off += counts[i]
	}
	for id, preds := range kept {
		tpl.initPending[id] = int32(len(preds))
		for _, p := range preds {
			succs[p] = append(succs[p], &tpl.nodes[id])
		}
	}
	for i := range tpl.nodes {
		nd := &tpl.nodes[i]
		nd.task = c.tasks[i]
		nd.succs = succs[i]
		nd.tpl = tpl
		nd.idx = int32(i)
		if tpl.initPending[i] == 0 {
			tpl.roots = append(tpl.roots, nd)
		}
	}
	return tpl
}

// reducePreds computes the transitive reduction of a DAG given in
// topological order (every predecessor index is smaller than its node's).
// It returns new per-node predecessor lists with every transitively
// redundant edge removed: edge p→i is redundant iff p is an ancestor of
// some other predecessor q of i, since then p→…→q→i already orders the
// pair. For a DAG the transitive reduction is unique, so this is
// the minimal edge set with the same transitive closure.
//
// Only a join (a node with two or more predecessors) can lose an edge, and
// it reads the ancestor sets of its predecessors only. So one reverse sweep
// marks the nodes some join needs (a join's predecessors and, recursively,
// theirs), and only those get an ancestor bitset, built in one forward
// sweep: O(n + edges) to mark, then O(m·n/64 · avg preds) time and m·n/8
// bytes for the m marked nodes — a one-off at capture time, off the replay
// path. A graph with no join is returned unchanged.
func reducePreds(preds [][]int) [][]int {
	n := len(preds)
	need := make([]bool, n)
	marked := 0
	for i := n - 1; i >= 0; i-- {
		if len(preds[i]) < 2 && !need[i] {
			continue
		}
		for _, p := range preds[i] {
			if !need[p] {
				need[p] = true
				marked++
			}
		}
	}
	if marked == 0 {
		return preds
	}
	words := (n + 63) / 64
	buf := make([]uint64, marked*words)
	anc := make([][]uint64, n)
	for i := 0; i < n; i++ {
		if !need[i] {
			continue
		}
		a := buf[:words:words]
		buf = buf[words:]
		for _, p := range preds[i] {
			for w, bits := range anc[p] {
				a[w] |= bits
			}
			a[p>>6] |= 1 << (uint(p) & 63)
		}
		anc[i] = a
	}
	reduced := make([][]int, n)
	for i := 0; i < n; i++ {
		ps := preds[i]
		if len(ps) <= 1 {
			reduced[i] = ps
			continue
		}
		keep := make([]int, 0, len(ps))
		for _, p := range ps {
			redundant := false
			for _, q := range ps {
				if q != p && anc[q][p>>6]&(1<<(uint(p)&63)) != 0 {
					redundant = true
					break
				}
			}
			if !redundant {
				keep = append(keep, p)
			}
		}
		reduced[i] = keep
	}
	return reduced
}

// Template is a frozen task DAG: one submission sequence with precomputed
// successor edge lists, initial in-degree counts, and flat reusable node
// storage. Replaying it re-executes the identical graph without touching the
// dependency table — zero key hashing and zero node allocation. Task bodies
// must therefore read any per-step data through stable indirection (the
// closures themselves are reused verbatim).
//
// A template may be replayed any number of times, but replays of the same
// template must not overlap: the caller must drain one replay (Wait) before
// starting the next, because the nodes' in-degree counters are reused.
type Template struct {
	// Name labels the template in profiles and reports (e.g. "train T=100").
	// Owners set it after Freeze, before the first replay; it is never read
	// on the execution path.
	Name string

	tasks       []*Task
	initPending []int32
	nodes       []node
	roots       []*node
	preds       [][]int32
	fullEdges   int

	// live counts this template's nodes still in flight; Replay refuses to
	// reset the counters of a template whose previous replay has not drained.
	live atomic.Int64
}

// Len reports the number of tasks in the template.
func (tpl *Template) Len() int { return len(tpl.nodes) }

// Task returns the i-th task of the frozen submission sequence. Node indices
// are capture order, which is topological: every predecessor of i is < i.
func (tpl *Template) Task(i int) *Task { return tpl.tasks[i] }

// NodePreds returns the predecessor indices of node i. The returned slice
// aliases the template's frozen storage; callers must not modify it.
func (tpl *Template) NodePreds(i int) []int32 { return tpl.preds[i] }

// Edges reports the total number of dependency edges in the frozen DAG —
// after transitive reduction unless the capture opted out.
func (tpl *Template) Edges() int {
	e := 0
	for i := range tpl.initPending {
		e += int(tpl.initPending[i])
	}
	return e
}

// FullEdges reports the derived edge count before transitive reduction.
func (tpl *Template) FullEdges() int { return tpl.fullEdges }

// Replay executes a frozen template on the worker pool: it resets every
// node's in-degree counter in one pass over the flat node slice, then
// publishes the roots. No dependency-table work happens — the edges were
// derived once at capture. Its tasks are ordered among themselves only;
// Wait synchronizes with it.
//
// The dependency sanitizer, when enabled, re-validates every replay: the
// capture-ordered submission sequence is re-announced to it (shadow versions
// keep advancing monotonically across replays), and each body start checks
// its keys' versions as usual.
func (r *Runtime) Replay(tpl *Template) {
	if len(tpl.nodes) == 0 {
		return
	}
	tStart := time.Now()
	if r.shutdownFlg.Load() {
		panic(fmt.Sprintf("taskrt: Replay of %d-task template after Shutdown — the worker pool is gone; create a new Runtime or replay before Shutdown", len(tpl.nodes)))
	}
	if !tpl.live.CompareAndSwap(0, int64(len(tpl.nodes))) {
		panic("taskrt: Replay of a template whose previous replay has not drained; Wait before replaying it again")
	}
	if r.depc != nil {
		r.depc.announce(tpl.tasks)
	}
	if r.opts.Profile != nil {
		// The sink sees the template before any of this replay's NodeDone
		// callbacks: roots are not published until after the reset loop.
		r.opts.Profile.ReplayStart(tpl, tStart.Sub(r.start).Nanoseconds())
	}

	// Reset every counter before publishing any root. A root finishing first
	// could decrement a successor's stale zero that the reset then
	// overwrites: a lost decrement, so the successor is never released and
	// the replay never drains (TestReplayResetsBeforePublish).
	for i := range tpl.nodes {
		tpl.nodes[i].pending.Store(tpl.initPending[i])
	}
	r.outstanding.Add(int64(len(tpl.nodes)))
	r.stats.submitted.Add(int64(len(tpl.nodes)))
	r.stats.replays.Add(1)
	r.global.pushBatch(tpl.roots)
	r.wake(len(tpl.roots))
	r.stats.submitNS.Add(time.Since(tStart).Nanoseconds())
}

// Replay executes a captured template sequentially in capture order. Capture
// order is topological (every predecessor was submitted before its
// successors), so running the tasks in that order is a valid schedule.
func (e *Inline) Replay(tpl *Template) {
	for _, t := range tpl.tasks {
		e.Submit(t)
	}
}
