package taskrt

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// DepChecker is the runtime dependency sanitizer behind Options.DepCheck.
// It is the dynamic counterpart of cmd/bpar-vet: where the static passes
// reason about task-emitting source, the checker observes one concrete run
// and proves its schedule honoured every declared edge.
//
// It maintains a shadow version per dependency key — incremented once per
// declared write — and verifies at each task's start that every key the task
// declared reading or writing is at exactly the version the submission order
// promised. A mismatch means the scheduler ran the task before a declared
// predecessor finished (RAW) or reordered two writers (WAW). Independently,
// buffers registered via Register/RegisterStep are matched against the
// tensor-kernel access hook: a task that touches a registered buffer whose
// key is absent from its In/Out/InOut lists is reported as an undeclared
// access — the silent-race class the paper's no-barrier argument cannot
// tolerate.
//
// Checking serializes task bodies on an internal mutex, so a depcheck run is
// a correctness mode, not a performance mode. Violations surface as errors
// from Runtime.Wait.
type DepChecker struct {
	// runMu serializes task bodies so the current-task pointer and version
	// counters observe one body at a time; hook callbacks then need only the
	// atomic load of current.
	runMu sync.Mutex

	// current is the record of the task body executing right now (nil
	// between bodies). Tensor-hook callbacks read it lock-free.
	current atomic.Pointer[depTaskRec]

	mu         sync.Mutex
	names      map[Dep]string
	owners     map[any]Dep // persistent buffer -> key
	stepOwners map[any]Dep // per-step buffer -> key, cleared by Reset
	keys       map[Dep]*depKeyState
	recs       map[*Task]*depTaskRec
	errs       []error
}

// depKeyState is the shadow version of one dependency key.
type depKeyState struct {
	submitted  int64 // declared writes submitted so far
	completed  int64 // declared writes completed so far
	lastWriter string
}

// depTaskRec captures what one submitted task declared and which key
// versions its position in the submission order entitles it to observe.
type depTaskRec struct {
	task        *Task
	readSet     map[Dep]bool // In ∪ InOut
	writeSet    map[Dep]bool // Out ∪ InOut
	expectRead  map[Dep]int64
	expectWrite map[Dep]int64
	reported    map[Dep]bool // dedupes undeclared-access reports per key
	dc          *DepChecker
}

func newDepChecker() *DepChecker {
	return &DepChecker{
		names:      make(map[Dep]string),
		owners:     make(map[any]Dep),
		stepOwners: make(map[any]Dep),
		keys:       make(map[Dep]*depKeyState),
		recs:       make(map[*Task]*depTaskRec),
	}
}

// Register associates buffers with the dependency key that names them in
// task annotations, for the lifetime of the checker. name is used in error
// messages. Buffers are matched by pointer identity.
func (dc *DepChecker) Register(key Dep, name string, bufs ...any) {
	dc.mu.Lock()
	dc.names[key] = name
	for _, b := range bufs {
		if b != nil {
			dc.owners[b] = key
		}
	}
	dc.mu.Unlock()
}

// RegisterStep is Register for buffers that live only for one step (e.g. the
// current batch's input matrices); ResetStepOwners clears these
// associations.
func (dc *DepChecker) RegisterStep(key Dep, name string, bufs ...any) {
	dc.mu.Lock()
	dc.names[key] = name
	for _, b := range bufs {
		if b != nil {
			dc.stepOwners[b] = key
		}
	}
	dc.mu.Unlock()
}

// keyName renders a key for error messages. Caller holds dc.mu.
func (dc *DepChecker) keyName(k Dep) string {
	if n := dc.names[k]; n != "" {
		return n
	}
	return fmt.Sprintf("%v", k)
}

func (dc *DepChecker) state(k Dep) *depKeyState {
	st := dc.keys[k]
	if st == nil {
		st = &depKeyState{}
		dc.keys[k] = st
	}
	return st
}

// announce records the declarations of a replay's tasks, in capture order,
// the order their edges were derived in, before any of them runs.
func (dc *DepChecker) announce(ts []*Task) {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	for _, t := range ts {
		dc.announceOne(t)
	}
}

// announceOne records the task's declarations and computes the key versions
// it must observe. It also rejects self-dependencies: a key in both In and
// Out/InOut would make the task its own predecessor — the one cycle a
// topological-order submitter can express — which the edge derivation
// silently drops instead of honouring. Caller holds dc.mu.
func (dc *DepChecker) announceOne(t *Task) {
	rec := &depTaskRec{
		task:        t,
		readSet:     make(map[Dep]bool, len(t.In)+len(t.InOut)),
		writeSet:    make(map[Dep]bool, len(t.Out)+len(t.InOut)),
		expectRead:  make(map[Dep]int64, len(t.In)+len(t.InOut)),
		expectWrite: make(map[Dep]int64, len(t.Out)+len(t.InOut)),
		dc:          dc,
	}
	for _, k := range t.In {
		rec.readSet[k] = true
	}
	for _, k := range t.InOut {
		rec.readSet[k] = true
		rec.writeSet[k] = true
	}
	for _, k := range t.Out {
		if rec.readSet[k] && !rec.writeSet[k] {
			dc.errs = append(dc.errs, fmt.Errorf(
				"depcheck: task %q declares key %s in both In and Out — a self-dependency cycle (%q -> %q) the runtime silently drops; declare it InOut",
				t.Label, dc.keyName(k), t.Label, t.Label))
		}
		rec.writeSet[k] = true
	}

	// Reads must observe every write submitted before this task completed.
	for k := range rec.readSet {
		if !rec.writeSet[k] {
			rec.expectRead[k] = dc.state(k).submitted
		}
	}
	// A writer must begin only after all earlier writers of the key
	// completed; InOut additionally requires its read at that same version.
	for k := range rec.writeSet {
		st := dc.state(k)
		rec.expectWrite[k] = st.submitted
		if rec.readSet[k] {
			rec.expectRead[k] = st.submitted
		}
		st.submitted++
		st.lastWriter = t.Label
	}
	dc.recs[t] = rec
}

// begin enters a task body: it serializes against other bodies, installs the
// body's record for the access hook, and checks the shadow versions the task
// is entitled to observe.
func (dc *DepChecker) begin(t *Task) {
	dc.runMu.Lock()
	dc.mu.Lock()
	rec := dc.recs[t]
	if rec == nil { // never announced: nothing to check
		dc.mu.Unlock()
		return
	}
	for k, want := range rec.expectRead {
		if got := dc.state(k).completed; got != want {
			dc.errs = append(dc.errs, fmt.Errorf(
				"depcheck: RAW violation: task %q read key %s at write-version %d, expected %d (last writer %q)",
				t.Label, dc.keyName(k), got, want, dc.keys[k].lastWriter))
		}
	}
	for k, want := range rec.expectWrite {
		if got := dc.state(k).completed; got != want {
			dc.errs = append(dc.errs, fmt.Errorf(
				"depcheck: WAW violation: task %q began writing key %s at write-version %d, expected %d (last writer %q)",
				t.Label, dc.keyName(k), got, want, dc.keys[k].lastWriter))
		}
	}
	dc.mu.Unlock()
	dc.current.Store(rec)
}

// end leaves a task body: it retires the body's declared writes (advancing
// the shadow versions) and releases the body serialization.
func (dc *DepChecker) end(t *Task) {
	dc.current.Store(nil)
	dc.mu.Lock()
	if rec := dc.recs[t]; rec != nil {
		for k := range rec.writeSet {
			dc.state(k).completed++
		}
		delete(dc.recs, t)
	}
	dc.mu.Unlock()
	dc.runMu.Unlock()
}

// NoteWrite reports that the currently executing task body mutated buf.
// The tensor access hook calls it for every kernel-level write; accesses
// outside any task body (builder/host code between Wait points) are ignored.
func (dc *DepChecker) NoteWrite(buf any) { dc.note(buf, true) }

// NoteRead reports that the currently executing task body read buf.
func (dc *DepChecker) NoteRead(buf any) { dc.note(buf, false) }

func (dc *DepChecker) note(buf any, write bool) {
	rec := dc.current.Load()
	if rec == nil || buf == nil {
		return
	}
	dc.mu.Lock()
	defer dc.mu.Unlock()
	key, ok := dc.owners[buf]
	if !ok {
		key, ok = dc.stepOwners[buf]
	}
	if !ok { // unregistered scratch buffer
		return
	}
	if write {
		if !rec.writeSet[key] && !rec.reportedOnce(key) {
			dc.errs = append(dc.errs, fmt.Errorf(
				"depcheck: undeclared write: task %q mutates buffer of key %s absent from its Out/InOut lists",
				rec.task.Label, dc.keyName(key)))
		}
		return
	}
	// Reading a buffer the task declared writing is fine (it just produced
	// or owns it); only a key absent from every list is undeclared.
	if !rec.readSet[key] && !rec.writeSet[key] && !rec.reportedOnce(key) {
		dc.errs = append(dc.errs, fmt.Errorf(
			"depcheck: undeclared read: task %q reads buffer of key %s absent from its In/InOut lists",
			rec.task.Label, dc.keyName(key)))
	}
}

// reportedOnce returns true if an undeclared access on key was already
// reported for this task, marking it otherwise. Caller holds dc.mu.
func (r *depTaskRec) reportedOnce(key Dep) bool {
	if r.reported[key] {
		return true
	}
	if r.reported == nil {
		r.reported = make(map[Dep]bool)
	}
	r.reported[key] = true
	return false
}

// take removes and returns accumulated violations. Runtime.Wait folds them
// into its joined error.
func (dc *DepChecker) take() []error {
	dc.mu.Lock()
	errs := dc.errs
	dc.errs = nil
	dc.mu.Unlock()
	return errs
}

// ResetStepOwners drops per-step buffer registrations (RegisterStep) while
// keeping shadow versions intact, which keep advancing across replays. The
// engine calls it between steps, since each step registers a fresh batch's
// input views. Persistent Register associations survive.
func (dc *DepChecker) ResetStepOwners() {
	dc.mu.Lock()
	dc.stepOwners = make(map[any]Dep)
	dc.mu.Unlock()
}
