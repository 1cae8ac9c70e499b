package taskrt

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// captureChain records w -> r -> w2 on one key and freezes it.
func captureChain() *Template {
	c := NewCapture()
	k := key("x")
	c.Submit(&Task{Label: "w", Out: []Dep{k}})
	c.Submit(&Task{Label: "r", In: []Dep{k}})
	c.Submit(&Task{Label: "w2", Out: []Dep{k}})
	return c.Freeze()
}

func TestCaptureChainEdges(t *testing.T) {
	tpl := captureChain()
	if tpl.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tpl.Len())
	}
	if len(tpl.roots) != 1 {
		t.Fatalf("roots = %d, want 1 (only the first writer)", len(tpl.roots))
	}
	// Derived: w->r (RAW), w->w2 (WAW), r->w2 (WAR). Reduction drops w->w2,
	// which w->r->w2 already orders.
	if tpl.Edges() != 2 {
		t.Fatalf("Edges = %d, want 2 after reduction", tpl.Edges())
	}
	if tpl.fullEdges != 3 {
		t.Fatalf("full edges = %d, want 3", tpl.fullEdges)
	}
}

func TestCaptureChainEdgesNoReduce(t *testing.T) {
	c := NewCapture()
	c.NoReduce = true
	k := key("x")
	c.Submit(&Task{Label: "w", Out: []Dep{k}})
	c.Submit(&Task{Label: "r", In: []Dep{k}})
	c.Submit(&Task{Label: "w2", Out: []Dep{k}})
	tpl := c.Freeze()
	// w->r (RAW), w->w2 (WAW), r->w2 (WAR) = 3 edges, kept verbatim.
	if tpl.Edges() != 3 {
		t.Fatalf("Edges = %d, want 3 with NoReduce", tpl.Edges())
	}
	if tpl.fullEdges != 3 {
		t.Fatalf("full edges = %d, want 3", tpl.fullEdges)
	}
}

func TestCaptureDiamondEdges(t *testing.T) {
	build := func(noReduce bool) *Template {
		c := NewCapture()
		c.NoReduce = noReduce
		a, b := key("a"), key("b")
		c.Submit(&Task{Label: "src", Out: []Dep{a}})
		c.Submit(&Task{Label: "left", In: []Dep{a}, Out: []Dep{b}})
		c.Submit(&Task{Label: "right", In: []Dep{a}})
		c.Submit(&Task{Label: "join", In: []Dep{b}, InOut: []Dep{a}})
		return c.Freeze()
	}

	// Derived: src->left and src->right (RAW a); join's preds are left
	// (RAW b), src (RAW a — src is still a's last writer, the branches only
	// read), and right (WAR a), deduped per task: 2 + 3 = 5 edges.
	full := build(true)
	if got, want := full.Edges(), 5; got != want {
		t.Fatalf("NoReduce Edges = %d, want %d", got, want)
	}

	// Reduction drops src->join: src->left->join (and src->right->join)
	// already order the pair.
	tpl := build(false)
	if len(tpl.roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(tpl.roots))
	}
	if got, want := tpl.Edges(), 4; got != want {
		t.Fatalf("Edges = %d, want %d after reduction", got, want)
	}
	if got, want := tpl.fullEdges-tpl.Edges(), 1; got != want {
		t.Fatalf("pruned edges = %d, want %d", got, want)
	}
	if got := tpl.nodes[3].succs; len(got) != 0 {
		t.Fatalf("join has %d successors, want 0", len(got))
	}
}

// TestReplayOrdering replays a chain on a racy 4-worker pool many times and
// checks every replay observes the captured RAW/WAR/WAW order.
func TestReplayOrdering(t *testing.T) {
	r := New(Options{Workers: 4})
	defer r.Shutdown()

	var mu sync.Mutex
	var order []string
	logT := func(name string) func() {
		return func() {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}
	}
	c := NewCapture()
	k := key("x")
	c.Submit(&Task{Label: "w", Out: []Dep{k}, Fn: logT("w")})
	c.Submit(&Task{Label: "r1", In: []Dep{k}, Fn: logT("r1")})
	c.Submit(&Task{Label: "r2", In: []Dep{k}, Fn: logT("r2")})
	c.Submit(&Task{Label: "w2", InOut: []Dep{k}, Fn: logT("w2")})
	tpl := c.Freeze()

	for trial := 0; trial < 50; trial++ {
		mu.Lock()
		order = order[:0]
		mu.Unlock()
		r.Replay(tpl)
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
		if len(order) != 4 {
			t.Fatalf("trial %d: %d tasks ran, want 4 (%v)", trial, len(order), order)
		}
		if order[0] != "w" || order[3] != "w2" {
			t.Fatalf("trial %d: order %v violates capture dependencies", trial, order)
		}
	}
}

// TestReplayAccumulates checks that replaying N times runs every body N times
// and that state mutated through an InOut chain accumulates across replays.
func TestReplayAccumulates(t *testing.T) {
	r := New(Options{Workers: 2})
	defer r.Shutdown()

	var total atomic.Int64
	c := NewCapture()
	k := key("acc")
	for i := 0; i < 5; i++ {
		c.Submit(&Task{Label: "add", InOut: []Dep{k}, Fn: func() { total.Add(1) }})
	}
	tpl := c.Freeze()

	const replays = 7
	for i := 0; i < replays; i++ {
		r.Replay(tpl)
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := total.Load(); got != 5*replays {
		t.Fatalf("total = %d, want %d", got, 5*replays)
	}
	st := r.Stats()
	if st.Replays != replays {
		t.Fatalf("Stats.Replays = %d, want %d", st.Replays, replays)
	}
	if st.Submitted != 5*replays {
		t.Fatalf("Stats.Submitted = %d, want %d", st.Submitted, 5*replays)
	}
}

// TestReplayPanicPropagates checks a panicking replayed body surfaces as a
// Wait error.
func TestReplayPanicPropagates(t *testing.T) {
	r := New(Options{Workers: 2})
	defer r.Shutdown()

	c := NewCapture()
	c.Submit(&Task{Label: "boom", Fn: func() { panic("kaput") }})
	tpl := c.Freeze()

	r.Replay(tpl)
	err := r.Wait()
	if err == nil || !strings.Contains(err.Error(), "kaput") {
		t.Fatalf("Wait = %v, want the task panic", err)
	}
}

// TestWaitClearsTaskErrors checks that Wait reports a task failure once: on
// either executor, a clean template replayed after a panicking one waits to
// nil, so one failed step does not fail every later step of an engine.
func TestWaitClearsTaskErrors(t *testing.T) {
	r := New(Options{Workers: 2})
	defer r.Shutdown()
	capture := func(fn func()) *Template {
		c := NewCapture()
		c.Submit(&Task{Label: "t", Fn: fn})
		return c.Freeze()
	}
	boom, clean := capture(func() { panic("kaput") }), capture(func() {})
	for _, ex := range []struct {
		name string
		e    Executor
	}{{"Runtime", r}, {"Inline", NewInline(nil)}} {
		ex.e.Replay(boom)
		if err := ex.e.Wait(); err == nil || !strings.Contains(err.Error(), "kaput") {
			t.Fatalf("%s: Wait after the panicking template = %v, want the task panic", ex.name, err)
		}
		ex.e.Replay(clean)
		if err := ex.e.Wait(); err != nil {
			t.Fatalf("%s: Wait after the clean template = %v, want nil", ex.name, err)
		}
	}
}

// TestReplayAfterShutdownPanics checks Replay, and the SubmitAll shim that
// replays a fresh capture, panic after Shutdown with Replay's message.
func TestReplayAfterShutdownPanics(t *testing.T) {
	for name, run := range map[string]func(r *Runtime){
		"Replay": func(r *Runtime) { r.Replay(captureChain()) },
		"SubmitAll": func(r *Runtime) {
			r.SubmitAll([]*Task{{Label: "batch-head", Fn: func() {}}, {Label: "batch-tail", Fn: func() {}}})
		},
	} {
		t.Run(name, func(t *testing.T) {
			r := New(Options{Workers: 1})
			r.Shutdown()
			msg := mustPanic(t, func() { run(r) })
			if !strings.Contains(msg, "Replay of") || !strings.Contains(msg, "after Shutdown") {
				t.Errorf("panic message %q is not Replay's after-Shutdown message", msg)
			}
		})
	}
}

// TestOverlappingReplayPanics checks the live-counter guard: replaying a
// template whose previous replay has not drained must panic rather than
// corrupt the shared in-degree counters.
func TestOverlappingReplayPanics(t *testing.T) {
	r := New(Options{Workers: 2})
	defer r.Shutdown()

	release := make(chan struct{})
	started := make(chan struct{})
	c := NewCapture()
	c.Submit(&Task{Label: "slow", Fn: func() {
		close(started)
		<-release
	}})
	tpl := c.Freeze()

	r.Replay(tpl)
	<-started // the first replay is definitely still live

	func() {
		defer func() {
			if recover() == nil {
				t.Error("overlapping Replay did not panic")
			}
		}()
		r.Replay(tpl)
	}()

	close(release)
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	// Drained now: replaying again must succeed (release stays closed, the
	// re-run body falls straight through the receive).
	started = make(chan struct{})
	r.Replay(tpl)
	<-started
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestInlineReplayOrder checks Inline.Replay runs bodies in capture order on
// the calling goroutine.
func TestInlineReplayOrder(t *testing.T) {
	e := NewInline(nil)
	var order []int
	c := NewCapture()
	for i := 0; i < 6; i++ {
		c.Submit(&Task{Label: "t", Fn: func() { order = append(order, i) }})
	}
	tpl := c.Freeze()

	e.Replay(tpl)
	e.Replay(tpl)
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 12 {
		t.Fatalf("%d bodies ran, want 12", len(order))
	}
	for rep := 0; rep < 2; rep++ {
		for i := 0; i < 6; i++ {
			if order[rep*6+i] != i {
				t.Fatalf("replay %d ran out of capture order: %v", rep, order)
			}
		}
	}
}

// TestCaptureFrozenPanics checks a frozen capture rejects further submissions.
func TestCaptureFrozenPanics(t *testing.T) {
	c := NewCapture()
	c.Submit(&Task{Label: "a"})
	c.Freeze()
	defer func() {
		if recover() == nil {
			t.Fatal("Submit on a frozen Capture did not panic")
		}
	}()
	c.Submit(&Task{Label: "b"})
}

// TestEmptyTemplateReplay checks replaying an empty template is a no-op.
func TestEmptyTemplateReplay(t *testing.T) {
	r := New(Options{Workers: 1})
	defer r.Shutdown()
	tpl := NewCapture().Freeze()
	r.Replay(tpl)
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Replays != 0 || st.Submitted != 0 {
		t.Fatalf("empty replay counted: %+v", st)
	}
}

// TestReplayWithDepCheckClean runs a depcheck-enabled runtime through several
// replays of a well-formed graph and expects no sanitizer reports.
func TestReplayWithDepCheckClean(t *testing.T) {
	r := New(Options{Workers: 4, DepCheck: true})
	defer r.Shutdown()

	var sum int
	c := NewCapture()
	k := key("x")
	c.Submit(&Task{Label: "w", Out: []Dep{k}, Fn: func() { sum++ }})
	c.Submit(&Task{Label: "r", In: []Dep{k}, Fn: func() { _ = sum }})
	tpl := c.Freeze()

	for i := 0; i < 3; i++ {
		r.Replay(tpl)
		if err := r.Wait(); err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
	}
}

// drainTimeout bounds how long the replay protocol tests wait for a drain.
const drainTimeout = 5 * time.Second

// waitWithin waits for r to drain, failing the test instead of hanging the
// suite when it has not drained within drainTimeout. A runtime that timed
// out is left running: its Shutdown would block on the same Wait.
func waitWithin(t *testing.T, r *Runtime, what string) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- r.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(drainTimeout):
		t.Fatalf("%s did not drain within %v", what, drainTimeout)
	}
}

// TestReplayResetsBeforePublish pins Replay's prologue order: every
// in-degree counter is reset before any root is published. The template is
// a writer of k and a reader of k. Were the writer published first, it could
// finish while the reader's counter still held the previous replay's zero;
// the reset would then overwrite that decrement, so the reader would never
// be released and the replay would never drain.
//
// The test makes that interleaving certain rather than lucky. A one-task
// replay keeps one worker spinning until the roots are published, and the test
// holds idleMu, which Replay takes to wake the parked worker when it
// publishes, until the writer has run. Replay thus stalls at its publish
// step, and a reset placed after it would run only after the writer's
// decrement.
func TestReplayResetsBeforePublish(t *testing.T) {
	const replays = 4
	r := New(Options{Workers: 2})
	c := NewCapture()
	k := key("x")
	wrote := make(chan struct{}, replays)
	var reads atomic.Int32
	c.Submit(&Task{Label: "w", Out: []Dep{k}, Fn: func() { wrote <- struct{}{} }})
	c.Submit(&Task{Label: "r", In: []Dep{k}, Fn: func() { reads.Add(1) }})
	tpl := c.Freeze()

	for i := 0; i < replays; i++ {
		// The spinner also stops once any task runs, in case it missed the
		// roots while descheduled.
		var spinning atomic.Bool
		replayTasks(r, &Task{Label: "spin", Fn: func() {
			ran := r.stats.executed.Load()
			spinning.Store(true)
			for r.ready.size.Load() == 0 && r.stats.executed.Load() == ran {
			}
		}})
		// wake takes idleMu only while a worker is parked.
		for !spinning.Load() || r.idlers.Load() == 0 {
			runtime.Gosched()
		}
		r.idleMu.Lock()
		go func() {
			select {
			case <-wrote:
			case <-time.After(drainTimeout):
			}
			r.idleMu.Unlock()
		}()
		r.Replay(tpl)
		waitWithin(t, r, "replay")
	}
	if got := reads.Load(); got != replays {
		t.Fatalf("reader ran %d times in %d replays", got, replays)
	}
	r.Shutdown()
}

// TestWideReplayLatchesAtMostWorkers pins wake's clamp: a replay that
// publishes far more roots than there are workers latches at most one
// wakeup per idle worker. Both workers are parked before the replay, and
// every root blocks on a gate, so each woken worker consumes one wakeup and
// then stays inside a body: the count read under idleMu is what the replay
// left latched, with no timing involved. Unclamped, it would be 4096 less
// the two consumed.
func TestWideReplayLatchesAtMostWorkers(t *testing.T) {
	const workers, roots = 2, 4096
	r := New(Options{Workers: workers})
	gate := make(chan struct{})
	c := NewCapture()
	for i := 0; i < roots; i++ {
		c.Submit(&Task{Label: "root", Fn: func() { <-gate }})
	}
	tpl := c.Freeze()
	for r.idlers.Load() != workers {
		runtime.Gosched()
	}
	r.Replay(tpl)
	r.idleMu.Lock()
	latched := r.wakeups
	r.idleMu.Unlock()
	close(gate)
	waitWithin(t, r, "wide replay")
	r.Shutdown()
	if latched > workers {
		t.Fatalf("replay of %d roots latched %d wakeups on %d workers", roots, latched, workers)
	}
}

// TestFreezeAllocationBounded checks that the transitive reduction builds
// ancestor bitsets only for nodes some join needs: freezing 1<<15 tasks with
// no join (independent tasks, or one InOut chain) must not allocate the
// n²/8 bytes of bitsets for every node, 128 MB at this size.
func TestFreezeAllocationBounded(t *testing.T) {
	const n, limit = 1 << 15, 16 << 20
	for name, deps := range map[string]func(k Dep) []Dep{
		"independent": func(Dep) []Dep { return nil },
		"inout-chain": func(k Dep) []Dep { return []Dep{k} },
	} {
		t.Run(name, func(t *testing.T) {
			c := NewCapture()
			k := key("chain")
			for i := 0; i < n; i++ {
				c.Submit(&Task{InOut: deps(k)})
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tpl := c.Freeze()
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
				t.Fatalf("Freeze of %d tasks allocated %d MB, want < %d MB", n, got>>20, limit>>20)
			}
			if tpl.Len() != n {
				t.Fatalf("Len = %d, want %d", tpl.Len(), n)
			}
		})
	}
}
