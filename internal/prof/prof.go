// Package prof is the template-aware graph profiler: it accumulates per-node
// durations and start/end timestamps across replay-template executions and
// computes the *measured* critical path over the frozen DAG — the measured
// counterpart of the modeled span internal/sim reports.
//
// The paper's whole evaluation (Section IV) is a profile of exactly this
// shape: task duration distributions, the runtime-overhead-to-useful-work
// ratio (kept below 10%), and where the critical path lives. PR 5's frozen
// templates make the measurement cheap and exact: every step executes the
// identical DAG, so node i of every replay is the same task, and all
// accumulation lands in fixed-index arrays keyed by template node ID — no
// maps and no locks between tasks.
//
// The hot path is three plain int64 stores and one plain add per task
// (NodeDone), plus one O(nodes+edges) integer pass per *replay* (ReplayDone)
// that folds the finished replay into scrape-safe atomics. The happens-before
// argument for the plain per-node arrays:
//
//   - Within one replay each node index is written exactly once, by the
//     worker that executed it.
//   - Replays of one template never overlap (taskrt.Replay enforces it), and
//     every worker's NodeDone write is ordered before the next replay's
//     writes through the template's live counter: the worker decrements it
//     right after the callback, later atomic operations on the same counter
//     observe that decrement, and the next Replay starts with a
//     CompareAndSwap on it.
//   - ReplayDone runs on the worker whose decrement drained the counter, so
//     every peer's writes for that replay are visible to it.
//
// Snapshot is the only reader of the raw arrays and must run while no replay
// of the profiled templates is in flight (after Wait); the /metrics gauges
// never touch the arrays — they read only the atomics ReplayDone maintains.
package prof

import (
	"sync"
	"sync/atomic"

	"bpar/internal/taskrt"
)

// GraphProfiler implements taskrt.ProfileSink. Zero-value ready; pass it as
// taskrt.Options.Profile. One profiler may observe any number of templates
// (and runtimes, though per-runtime timestamps then share no common clock —
// keep one profiler per runtime when timelines matter).
type GraphProfiler struct {
	mu   sync.Mutex // serializes registration (COW map swap)
	tpls atomic.Pointer[map[*taskrt.Template]*tplProf]

	// lastDone is the profile of the most recently completed replay across
	// all templates — what the bpar_prof_* gauges report.
	lastDone atomic.Pointer[tplProf]
}

// NewGraphProfiler returns an empty profiler.
func NewGraphProfiler() *GraphProfiler {
	return &GraphProfiler{}
}

// tplProf is the per-template accumulation state.
type tplProf struct {
	tpl *taskrt.Template
	n   int

	// Plain per-node arrays: single writer per index per replay, cross-replay
	// ordering via the template's live counter (see the package comment).
	sumNS       []int64 // total duration across replays
	lastStartNS []int64 // last replay's timeline
	lastEndNS   []int64
	lastWorker  []int32

	// replayStartAtNS is written by ReplayStart before the replay's roots
	// are published and read by ReplayDone; the root-publication edge
	// orders them.
	replayStartAtNS int64

	// eftScratch is ReplayDone's longest-path buffer; replays of one
	// template never overlap, so ReplayDone never runs concurrently with
	// itself for the same template.
	eftScratch []int64

	// Scrape-safe rollups, updated once per replay in ReplayDone and read by
	// the /metrics gauges at any time.
	replays       atomic.Int64
	lastSpanNS    atomic.Int64 // longest path by this replay's durations
	lastWorkNS    atomic.Int64 // sum of this replay's durations
	lastElapsedNS atomic.Int64 // replay-done time minus replay-start time
	spanSumNS     atomic.Int64
	workSumNS     atomic.Int64
	elapsedSumNS  atomic.Int64
}

var _ taskrt.ProfileSink = (*GraphProfiler)(nil)

// load returns the current template map, never nil.
func (p *GraphProfiler) load() map[*taskrt.Template]*tplProf {
	if m := p.tpls.Load(); m != nil {
		return *m
	}
	return nil
}

// ReplayStart registers the template on first sight (the only slow path:
// copy-on-write of the template map under p.mu, so NodeDone always reads an
// immutable map without a lock) and stamps the replay's start time.
func (p *GraphProfiler) ReplayStart(tpl *taskrt.Template, atNS int64) {
	tp := p.load()[tpl]
	if tp == nil {
		tp = p.register(tpl)
	}
	tp.replayStartAtNS = atNS
}

// register adds tpl to the COW map and returns its profile.
func (p *GraphProfiler) register(tpl *taskrt.Template) *tplProf {
	p.mu.Lock()
	defer p.mu.Unlock()
	if tp := p.load()[tpl]; tp != nil {
		return tp
	}
	n := tpl.Len()
	tp := &tplProf{
		tpl: tpl, n: n,
		sumNS:       make([]int64, n),
		lastStartNS: make([]int64, n),
		lastEndNS:   make([]int64, n),
		lastWorker:  make([]int32, n),
		eftScratch:  make([]int64, n),
	}
	old := p.load()
	next := make(map[*taskrt.Template]*tplProf, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[tpl] = tp
	p.tpls.Store(&next)
	return tp
}

// NodeDone records one node execution: a map read and four plain stores.
func (p *GraphProfiler) NodeDone(tpl *taskrt.Template, idx, worker int, startNS, endNS int64) {
	tp := p.load()[tpl]
	if tp == nil {
		return // unreachable: ReplayStart registered before any NodeDone
	}
	tp.sumNS[idx] += endNS - startNS
	tp.lastStartNS[idx] = startNS
	tp.lastEndNS[idx] = endNS
	tp.lastWorker[idx] = int32(worker)
}

// ReplayDone folds the finished replay into the scrape-safe rollups: total
// work and the longest dependency path by this replay's measured durations
// (one pass over nodes and frozen predecessor edges; capture order is
// topological, so a forward scan suffices).
func (p *GraphProfiler) ReplayDone(tpl *taskrt.Template, atNS int64) {
	tp := p.load()[tpl]
	if tp == nil {
		return
	}
	var span, work int64
	eft := tp.eftScratch
	for i := 0; i < tp.n; i++ {
		dur := tp.lastEndNS[i] - tp.lastStartNS[i]
		work += dur
		var est int64
		for _, pr := range tp.tpl.NodePreds(i) {
			if eft[pr] > est {
				est = eft[pr]
			}
		}
		eft[i] = est + dur
		if eft[i] > span {
			span = eft[i]
		}
	}
	tp.lastSpanNS.Store(span)
	tp.lastWorkNS.Store(work)
	tp.lastElapsedNS.Store(atNS - tp.replayStartAtNS)
	tp.spanSumNS.Add(span)
	tp.workSumNS.Add(work)
	tp.elapsedSumNS.Add(atNS - tp.replayStartAtNS)
	tp.replays.Add(1)
	p.lastDone.Store(tp)
}

// Replays returns the total completed replays observed across all templates.
func (p *GraphProfiler) Replays() int64 {
	var total int64
	for _, tp := range p.load() {
		total += tp.replays.Load()
	}
	return total
}

// Templates returns how many distinct templates have been observed.
func (p *GraphProfiler) Templates() int {
	return len(p.load())
}
