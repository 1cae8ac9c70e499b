package graphlint

import (
	"fmt"
	"math/bits"

	"bpar/internal/prof"
)

// Bug selects a deliberately broken replay protocol for ModelCheck to
// explore, demonstrating the checker detects the violation the real
// protocol prevents.
type Bug int

const (
	// BugNone models the real protocol: Replay resets every node's
	// in-degree counter, then publishes the roots; bodies never touch the
	// dependency table.
	BugNone Bug = iota
	// BugRootsBeforeReset publishes the roots first and lets the per-node
	// counter resets race the executing graph — the interleaving
	// Runtime.Replay's "reset every counter before publishing any root"
	// ordering forbids. The checker finds a schedule where a completing
	// task decrements a successor counter still holding the previous
	// replay's drained value, losing the decrement when the reset loop
	// overwrites it.
	BugRootsBeforeReset
	// BugTableWrites models replayed writers bumping the dependency table's
	// completion versions, violating table isolation: a replay never enters
	// the dependency table, so a later fresh emission derives against a clean
	// table, and a table the replay advanced would order it against writes
	// fresh emission never produced.
	BugTableWrites
)

// ModelOptions bounds and configures a model-checking run.
type ModelOptions struct {
	// MaxStates caps the distinct scheduler states explored; 0 means the
	// default of 1<<20. The exploration is exhaustive iff the run finishes
	// under the cap (Result.Complete).
	MaxStates int
	// Bug injects a protocol defect (see Bug). BugNone models two
	// back-to-back replays of the template, the minimum that exercises
	// counter reuse; bug modes model one replay over drained counters — the
	// state a second replay starts from.
	Bug Bug
}

// ModelResult reports a model-checking run.
type ModelResult struct {
	// States is the number of distinct scheduler states visited.
	States int
	// Complete is true when the whole schedule space fit under MaxStates —
	// i.e. the verification is exhaustive, not a sample.
	Complete bool
	// Violation describes the first invariant violation found; empty if
	// every schedule is clean.
	Violation string
}

// ModelCheck exhaustively enumerates the schedules of a dumped template
// under the replay protocol and verifies, on every interleaving:
//
//   - safety: a task is released only after every ancestor in the frozen
//     closure finished (the transitive reduction removed no needed
//     ordering), and each task runs exactly once per replay;
//   - the counter-reset-before-roots invariant: no completion ever touches
//     a successor counter still holding the previous replay's value;
//   - table isolation: replayed completions leave the dependency table's
//     versions untouched, so a later fresh emission derives against a
//     clean table;
//   - termination: every maximal schedule executes the whole graph (no
//     deadlock).
//
// Release is modeled push-based like the runtime: a node becomes ready when
// it is published as a root or when a completing predecessor decrements its
// counter to zero — a zero counter alone releases nothing.
//
// The schedule space is reduced with the partial-order observation that
// under the real protocol all enabled transitions commute (completing one
// ready task never disables another), so any two interleavings reaching the
// same executed-set are equivalent; the checker memoizes on that set,
// collapsing factorially many schedules to the DAG's down-sets. Injected
// bugs break commutativity (counter resets race executions), so their memo
// key also carries the reset-set and counter values. Exploration is
// depth-first and bounded by MaxStates.
func ModelCheck(d *prof.TemplateData, opts ModelOptions) ModelResult {
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	replays := 2
	if opts.Bug != BugNone {
		replays = 1
	}
	n := len(d.Nodes)
	if n == 0 {
		return ModelResult{States: 1, Complete: true}
	}
	preds := frozenPreds(d)
	m := &modelChecker{
		d: d, n: n, anc: closure(preds, n),
		succs:       make([][]int, n),
		initPending: make([]int, n),
		bug:         opts.Bug, replays: replays, maxStates: maxStates,
		memo: make(map[string]bool),
	}
	for i, ps := range preds {
		m.initPending[i] = len(ps)
		for _, p := range ps {
			m.succs[p] = append(m.succs[p], i)
		}
	}

	// Counters start drained (all zero): a fresh Freeze leaves node storage
	// zeroed and a completed replay ends with every counter at zero, so this
	// is the state every Replay call starts from.
	st := &modelState{
		executed: newBitset(n),
		released: newBitset(n),
		reset:    newBitset(n),
		counter:  make([]int, n),
	}
	violation := m.beginRound(st, 0)
	return ModelResult{States: m.states, Complete: !m.truncated, Violation: violation}
}

type modelChecker struct {
	d           *prof.TemplateData
	n           int
	anc         []bitset
	succs       [][]int
	initPending []int
	bug         Bug
	replays     int
	maxStates   int

	states    int
	truncated bool
	memo      map[string]bool
}

// modelState is one scheduler state within one replay round. counter values
// persist across rounds (they are the template's reused node storage).
type modelState struct {
	executed bitset
	released bitset
	reset    bitset
	counter  []int
	nExec    int
}

func (m *modelChecker) key(st *modelState, round int) string {
	b := make([]byte, 0, 2+8*len(st.executed)+len(st.counter))
	b = append(b, byte(round))
	for _, w := range st.executed {
		b = append(b, byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	if m.bug != BugNone {
		for _, w := range st.reset {
			b = append(b, byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
				byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
		}
		for _, c := range st.counter {
			b = append(b, byte(c))
		}
	}
	return string(b)
}

// beginRound models Replay's prologue for one round, then explores the
// round's schedules.
func (m *modelChecker) beginRound(st *modelState, round int) string {
	if round >= m.replays {
		return ""
	}
	if m.bug != BugRootsBeforeReset {
		// Real protocol: every counter is reset before any root publishes.
		for i := 0; i < m.n; i++ {
			st.counter[i] = m.initPending[i]
			st.reset.set(i)
		}
	}
	for i := 0; i < m.n; i++ {
		if m.initPending[i] == 0 {
			st.released.set(i)
		}
	}
	return m.step(st, round)
}

func (m *modelChecker) step(st *modelState, round int) string {
	if m.truncated {
		return ""
	}
	key := m.key(st, round)
	if m.memo[key] {
		return ""
	}
	m.states++
	if m.states >= m.maxStates {
		m.truncated = true
		return ""
	}

	if st.nExec == m.n {
		// Round drained; counters are back to zero. Model the next replay.
		next := &modelState{
			executed: newBitset(m.n),
			released: newBitset(m.n),
			reset:    newBitset(m.n),
			counter:  st.counter,
		}
		if v := m.beginRound(next, round+1); v != "" {
			return v
		}
		m.memo[key] = true
		return ""
	}

	progressed := false
	// Transition: run one released, not-yet-executed task to completion.
	for i := 0; i < m.n; i++ {
		if !st.released.has(i) || st.executed.has(i) {
			continue
		}
		progressed = true
		// Safety: the frozen closure's ancestors must all have finished.
		for w, ancWord := range m.anc[i] {
			if missing := ancWord &^ st.executed[w]; missing != 0 {
				a := w*64 + bits.TrailingZeros64(missing)
				return fmt.Sprintf("template %q replay %d: task %q released before its ancestor %q finished — a dependency edge is missing from the frozen graph",
					m.d.Name, round, m.d.Nodes[i].Label, m.d.Nodes[a].Label)
			}
		}
		if m.bug == BugTableWrites && (len(m.d.Nodes[i].Out) > 0 || len(m.d.Nodes[i].InOut) > 0) {
			k := firstWrittenKey(&m.d.Nodes[i])
			return fmt.Sprintf("template %q replay %d: replayed task %q advanced the dependency table version of key %q — a replay must never enter the table, so later fresh emission derives against a clean one",
				m.d.Name, round, m.d.Nodes[i].Label, m.d.Keys[k])
		}
		undo, raced := m.complete(st, i)
		var v string
		if raced >= 0 {
			v = fmt.Sprintf("template %q replay %d: task %q completed into successor %q's counter before the reset loop reached it (stale drained value) — the decrement is lost when the reset overwrites it",
				m.d.Name, round, m.d.Nodes[i].Label, m.d.Nodes[raced].Label)
		} else {
			v = m.step(st, round)
		}
		undo()
		if v != "" {
			return v
		}
	}
	// Transition (bug mode): the replay prologue resets one more counter,
	// racing the already-published roots' downstream execution.
	if m.bug == BugRootsBeforeReset {
		for i := 0; i < m.n; i++ {
			if st.reset.has(i) {
				continue
			}
			progressed = true
			prev := st.counter[i]
			st.counter[i] = m.initPending[i]
			st.reset.set(i)
			v := m.step(st, round)
			st.counter[i] = prev
			st.reset.clear(i)
			if v != "" {
				return v
			}
		}
	}

	if !progressed {
		var stuck []string
		for i := 0; i < m.n && len(stuck) < 4; i++ {
			if !st.executed.has(i) {
				stuck = append(stuck, fmt.Sprintf("%q(counter=%d)", m.d.Nodes[i].Label, st.counter[i]))
			}
		}
		return fmt.Sprintf("template %q replay %d: deadlock with %d task(s) never released, e.g. %v",
			m.d.Name, round, m.n-st.nExec, stuck)
	}
	m.memo[key] = true
	return ""
}

// complete applies task i's completion: decrement every successor counter,
// releasing those that hit zero. It returns an undo closure and, in
// BugRootsBeforeReset mode, the first successor whose counter was still
// un-reset when touched (-1 if none) — the stale-counter race itself.
func (m *modelChecker) complete(st *modelState, i int) (func(), int) {
	st.executed.set(i)
	st.nExec++
	raced := -1
	type change struct {
		s        int
		released bool
	}
	var changes []change
	for _, s := range m.succs[i] {
		if m.bug == BugRootsBeforeReset && !st.reset.has(s) && raced < 0 {
			raced = s
		}
		st.counter[s]--
		rel := st.counter[s] == 0 && !st.released.has(s)
		if rel {
			st.released.set(s)
		}
		changes = append(changes, change{s, rel})
	}
	return func() {
		for _, c := range changes {
			st.counter[c.s]++
			if c.released {
				st.released.clear(c.s)
			}
		}
		st.executed.clear(i)
		st.nExec--
	}, raced
}

func firstWrittenKey(nd *prof.NodeData) int {
	if len(nd.Out) > 0 {
		return nd.Out[0]
	}
	return nd.InOut[0]
}

func (b bitset) clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }
