// Package sim is a discrete-event simulator of task-graph execution on a
// multi-core NUMA machine. It stands in for the paper's dual-socket 48-core
// Xeon: the host running this repository has neither 48 cores nor readable
// IPC/L3-MPKI hardware counters, so core-count sweeps (Figures 3-6, 8) and
// the locality study (Figure 7) replay the *real* task graphs emitted by the
// B-Par builder on a simulated platform instead.
//
// The simulator implements event-driven list scheduling with the same two
// policies as the native runtime — breadth-first FIFO and locality-aware
// successor placement — plus a socket-shared last-level-cache model that
// produces cache-hit ratios, NUMA penalties, and per-task IPC/MPKI
// estimates.
package sim

import (
	"container/heap"
	"fmt"

	"bpar/internal/costmodel"
	"bpar/internal/taskrt"
)

// Policy selects the simulated scheduling policy.
type Policy int

const (
	// FIFO is the breadth-first global-queue policy.
	FIFO Policy = iota
	// Locality places a readied task on the core that produced its input.
	Locality
	// CriticalPath picks the ready task with the largest remaining
	// downstream work (HEFT-style upward rank) — an alternative priority
	// heuristic ablated against the paper's two policies.
	CriticalPath
)

func (p Policy) String() string {
	switch p {
	case Locality:
		return "locality-aware"
	case CriticalPath:
		return "critical-path"
	default:
		return "fifo"
	}
}

// Options configures one simulation run.
type Options struct {
	Machine costmodel.Machine
	Policy  Policy
	// Cores optionally restricts the machine to its first n cores.
	Cores int
	// Durations, when non-nil, overrides the cost model with measured
	// per-node durations in seconds, indexed by node ID — the calibration
	// mode internal/prof feeds with a profiled template's mean durations.
	// Must have exactly one entry per graph node. The cache model still
	// runs (hit ratios and NUMA stats stay available) but no longer affects
	// timing.
	Durations []float64
}

// Result aggregates one simulated execution.
type Result struct {
	// MakespanSec is the simulated wall-clock time of the whole graph.
	MakespanSec float64
	// TotalTaskSec is the summed duration of all tasks (work).
	TotalTaskSec float64
	// AvgParallelism is TotalTaskSec / MakespanSec.
	AvgParallelism float64
	// Utilization is AvgParallelism / cores.
	Utilization float64
	// CoreBusySec is per-core busy time.
	CoreBusySec []float64
	// IPCHist and MPKIHist are duration-weighted histograms of the cache
	// model's per-task IPC and L3 MPKI estimates (Figure 7).
	IPCHist, MPKIHist *Hist
	// AvgHitRatio is the duration-weighted mean cache-hit ratio.
	AvgHitRatio float64
	// AvgRunningWS and PeakRunningWS track the summed working sets of
	// concurrently running tasks over time (the memory study).
	AvgRunningWS  float64
	PeakRunningWS int64
	// AvgRunningTasks is the time-averaged count of running tasks.
	AvgRunningTasks float64
	// LocalityHits counts tasks scheduled on their preferred core;
	// Steals counts tasks taken by another core.
	LocalityHits, Steals int
	// Tasks is the number of executed graph nodes.
	Tasks int
}

// completion is a scheduled task completion event.
type completion struct {
	at   float64
	id   int
	core int
}

type completionHeap []completion

func (h completionHeap) Len() int            { return len(h) }
func (h completionHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h completionHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x interface{}) { *h = append(*h, x.(completion)) }
func (h *completionHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// readyItem is a task waiting for a core.
type readyItem struct {
	id       int
	prefCore int // core of the predecessor that readied it; -1 if none
	seq      int // FIFO order
}

// Run simulates the graph on the configured machine and returns aggregate
// results. The graph must be topologically ordered by node ID (which
// taskrt.Capture guarantees).
func Run(g *taskrt.Graph, opt Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	m := opt.Machine
	if opt.Cores > 0 {
		m = m.WithCores(opt.Cores)
	}
	if m.Cores < 1 {
		return nil, fmt.Errorf("sim: machine has no cores")
	}
	if opt.Durations != nil && len(opt.Durations) != len(g.Nodes) {
		return nil, fmt.Errorf("sim: %d measured durations for %d nodes", len(opt.Durations), len(g.Nodes))
	}
	n := len(g.Nodes)
	res := &Result{
		CoreBusySec: make([]float64, m.Cores),
		IPCHist:     NewHist(0, 0.5, 1.0, 1.5, 2.0),
		MPKIHist:    NewHist(0, 10, 20, 30),
		Tasks:       n,
	}
	if n == 0 {
		return res, nil
	}

	cache := newCacheState(n, m)
	indeg := make([]int, n)
	for _, nd := range g.Nodes {
		indeg[nd.ID] = len(nd.Preds)
	}

	// Upward ranks for the critical-path policy: flops of the node plus the
	// largest-rank successor, computed in reverse topological order.
	var urank []float64
	if opt.Policy == CriticalPath {
		urank = make([]float64, n)
		for i := n - 1; i >= 0; i-- {
			nd := g.Nodes[i]
			best := 0.0
			for _, s := range nd.Succs {
				if urank[s] > best {
					best = urank[s]
				}
			}
			urank[i] = nd.Flops + best
		}
	}

	// The ready queue is append-only with a head index: items are appended
	// in readiness order, so the FIFO-oldest item is always at the head.
	var ready []readyItem
	head := 0
	seq := 0
	pushReady := func(id, pref int) {
		ready = append(ready, readyItem{id: id, prefCore: pref, seq: seq})
		seq++
	}
	compact := func() {
		if head > 4096 && head*2 >= len(ready) {
			ready = append(ready[:0], ready[head:]...)
			head = 0
		}
	}
	for _, nd := range g.Nodes {
		if indeg[nd.ID] == 0 {
			pushReady(nd.ID, -1)
		}
	}

	coreFree := make([]bool, m.Cores)
	for i := range coreFree {
		coreFree[i] = true
	}
	nFree := m.Cores
	// freeQ orders free cores by how long they have been idle, so FIFO
	// assignment round-robins across cores (breadth-first spreading) and
	// thief steals go to the longest-starved core.
	freeQ := make([]int, m.Cores)
	for i := range freeQ {
		freeQ[i] = i
	}
	fqHead := 0
	popFreeCore := func() int {
		for fqHead < len(freeQ) {
			c := freeQ[fqHead]
			fqHead++
			if fqHead > 4096 && fqHead*2 >= len(freeQ) {
				freeQ = append(freeQ[:0], freeQ[fqHead:]...)
				fqHead = 0
			}
			if coreFree[c] {
				return c
			}
		}
		return -1
	}

	var events completionHeap
	now := 0.0
	lastT := 0.0
	var runningWS int64
	runningCount := 0
	wsIntegral := 0.0
	taskIntegral := 0.0
	hitWeighted := 0.0
	completed := 0

	advanceTo := func(t float64) {
		dt := t - lastT
		if dt > 0 {
			wsIntegral += float64(runningWS) * dt
			taskIntegral += float64(runningCount) * dt
			lastT = t
		}
	}

	// takeReady removes and returns the ready item for the given free-core
	// situation under the policy: a task preferring a free core if any,
	// otherwise the oldest ready task.
	takeReady := func() (readyItem, int, bool) {
		if head >= len(ready) {
			return readyItem{}, -1, false
		}
		// The idle-thief model: when the machine is nearly idle (over 7/8
		// of cores free), spinning thief workers win the race against the
		// locality-preferred core and the task runs on the longest-idle
		// core instead. This reproduces the NUMA degradation the paper
		// observes for low-concurrency configurations (mbs:1-4) on 32 and
		// 48 cores, while highly concurrent configurations keep their
		// locality because few thieves are idle.
		starved := nFree*8 > m.Cores*7
		if opt.Policy == Locality && !starved {
			// The most recently readied task whose preferred core is free —
			// LIFO preference keeps reuse distances short.
			for i := len(ready) - 1; i >= head; i-- {
				it := ready[i]
				if it.prefCore >= 0 && it.prefCore < m.Cores && coreFree[it.prefCore] {
					copy(ready[i:], ready[i+1:])
					ready = ready[:len(ready)-1]
					res.LocalityHits++
					return it, it.prefCore, true
				}
			}
		}
		if opt.Policy == CriticalPath {
			// Highest upward rank first.
			best := head
			for i := head + 1; i < len(ready); i++ {
				if urank[ready[i].id] > urank[ready[best].id] {
					best = i
				}
			}
			it := ready[best]
			ready[best] = ready[head]
			head++
			compact()
			core := popFreeCore()
			return it, core, true
		}
		// FIFO (and stolen) path: the oldest ready task to the
		// longest-idle free core. Under the locality policy a non-starved
		// fallback stays on the task's preferred socket when possible, so
		// mere queueing does not force NUMA traffic.
		it := ready[head]
		head++
		compact()
		core := -1
		if opt.Policy == Locality && !starved && it.prefCore >= 0 {
			want := m.SocketOf(it.prefCore)
			cps := m.CoresPerSocket()
			for c := want * cps; c < (want+1)*cps && c < m.Cores; c++ {
				if coreFree[c] {
					core = c
					break
				}
			}
		}
		if core < 0 {
			core = popFreeCore()
		}
		if opt.Policy == Locality && it.prefCore >= 0 && it.prefCore != core {
			res.Steals++
		}
		return it, core, true
	}

	start := func(it readyItem, core int) {
		nd := g.Nodes[it.id]
		socket := m.SocketOf(core)
		hit, cross := cache.hitAndCross(g, nd, socket)
		missBytes := float64(nd.WorkingSet) * (1 - hit)
		numaMult := 1 + (m.NUMAPenalty-1)*cross
		dur := m.TaskSeconds(nd.Flops, missBytes, numaMult)
		if opt.Durations != nil {
			dur = opt.Durations[nd.ID]
		}
		if nd.Kind == "barrier" {
			dur = 0
		}
		coreFree[core] = false
		nFree--
		runningWS += nd.WorkingSet
		if runningWS > res.PeakRunningWS {
			res.PeakRunningWS = runningWS
		}
		runningCount++
		res.CoreBusySec[core] += dur
		res.TotalTaskSec += dur
		if nd.Flops > 0 {
			res.IPCHist.Add(m.IPC(nd.Flops, dur), dur)
			res.MPKIHist.Add(m.MPKI(nd.Flops, hit), dur)
			hitWeighted += hit * dur
		}
		heap.Push(&events, completion{at: now + dur, id: it.id, core: core})
	}

	for completed < n {
		// Greedily assign ready tasks to free cores at the current time.
		for nFree > 0 {
			it, core, ok := takeReady()
			if !ok {
				break
			}
			start(it, core)
		}
		if events.Len() == 0 {
			return nil, fmt.Errorf("sim: deadlock with %d/%d tasks completed", completed, n)
		}
		ev := heap.Pop(&events).(completion)
		advanceTo(ev.at)
		now = ev.at
		nd := g.Nodes[ev.id]
		cache.complete(nd, m.SocketOf(ev.core), ev.core)
		coreFree[ev.core] = true
		freeQ = append(freeQ, ev.core)
		nFree++
		runningWS -= nd.WorkingSet
		runningCount--
		completed++
		for _, s := range nd.Succs {
			indeg[s]--
			if indeg[s] == 0 {
				pushReady(s, ev.core)
			}
		}
	}

	res.MakespanSec = now
	if now > 0 {
		res.AvgParallelism = res.TotalTaskSec / now
		res.Utilization = res.AvgParallelism / float64(m.Cores)
		res.AvgRunningWS = wsIntegral / now
		res.AvgRunningTasks = taskIntegral / now
	}
	if res.TotalTaskSec > 0 {
		res.AvgHitRatio = hitWeighted / res.TotalTaskSec
	}
	return res, nil
}
