package taskrt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// key is a convenient comparable dependency key for tests.
type key string

// replayTasks captures ts in order, freezes them and replays the template
// on r: the one way tests run tasks on a Runtime.
func replayTasks(r *Runtime, ts ...*Task) {
	c := NewCapture()
	c.SubmitAll(ts)
	r.Replay(c.Freeze())
}

func TestSingleTaskRuns(t *testing.T) {
	r := New(Options{Workers: 2})
	defer r.Shutdown()
	ran := int32(0)
	replayTasks(r, &Task{Label: "t", Fn: func() { atomic.AddInt32(&ran, 1) }})
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("task ran %d times", ran)
	}
}

func TestRAWOrdering(t *testing.T) {
	// writer -> reader must be ordered for every interleaving of workers.
	for trial := 0; trial < 50; trial++ {
		r := New(Options{Workers: 4})
		var wrote, readOK int32
		k := key("x")
		replayTasks(r,
			&Task{Label: "w", Out: []Dep{k}, Fn: func() { atomic.StoreInt32(&wrote, 1) }},
			&Task{Label: "r", In: []Dep{k}, Fn: func() {
				if atomic.LoadInt32(&wrote) == 1 {
					atomic.StoreInt32(&readOK, 1)
				}
			}})
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
		r.Shutdown()
		if readOK != 1 {
			t.Fatalf("trial %d: reader ran before writer", trial)
		}
	}
}

func TestWARAndWAWOrdering(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		r := New(Options{Workers: 4})
		k := key("x")
		var order []string
		var mu sync.Mutex
		logT := func(name string) func() {
			return func() {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
			}
		}
		replayTasks(r,
			&Task{Label: "w1", Out: []Dep{k}, Fn: logT("w1")},
			&Task{Label: "r1", In: []Dep{k}, Fn: logT("r1")},
			&Task{Label: "r2", In: []Dep{k}, Fn: logT("r2")},
			&Task{Label: "w2", Out: []Dep{k}, Fn: logT("w2")}, // WAR on r1,r2; WAW on w1
			&Task{Label: "r3", In: []Dep{k}, Fn: logT("r3")})  // RAW on w2
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
		r.Shutdown()

		pos := map[string]int{}
		for i, n := range order {
			pos[n] = i
		}
		if len(pos) != 5 {
			t.Fatalf("trial %d: expected 5 tasks, got %v", trial, order)
		}
		if pos["w1"] > pos["r1"] || pos["w1"] > pos["r2"] {
			t.Fatalf("trial %d: RAW violated: %v", trial, order)
		}
		if pos["r1"] > pos["w2"] || pos["r2"] > pos["w2"] {
			t.Fatalf("trial %d: WAR violated: %v", trial, order)
		}
		if pos["w1"] > pos["w2"] {
			t.Fatalf("trial %d: WAW violated: %v", trial, order)
		}
		if pos["w2"] > pos["r3"] {
			t.Fatalf("trial %d: RAW(2) violated: %v", trial, order)
		}
	}
}

func TestInOutChainSerializes(t *testing.T) {
	// InOut on the same key forms a chain executed in submission order —
	// the mechanism that makes gradient accumulation deterministic.
	r := New(Options{Workers: 8})
	defer r.Shutdown()
	k := key("acc")
	n := 200
	var got []int
	var mu sync.Mutex
	var tasks []*Task
	for i := 0; i < n; i++ {
		tasks = append(tasks, &Task{Label: fmt.Sprintf("acc%d", i), InOut: []Dep{k}, Fn: func() {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
		}})
	}
	replayTasks(r, tasks...)
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("InOut chain out of order at %d: %v...", i, got[:i+1])
		}
	}
}

func TestIndependentTasksRunConcurrently(t *testing.T) {
	r := New(Options{Workers: 4})
	defer r.Shutdown()
	var running, peak int32
	var gate sync.WaitGroup
	gate.Add(4)
	var tasks []*Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, &Task{Label: "p", Fn: func() {
			v := atomic.AddInt32(&running, 1)
			for {
				p := atomic.LoadInt32(&peak)
				if v <= p || atomic.CompareAndSwapInt32(&peak, p, v) {
					break
				}
			}
			gate.Done()
			gate.Wait() // all four must be in flight simultaneously
			atomic.AddInt32(&running, -1)
		}})
	}
	replayTasks(r, tasks...)
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if peak != 4 {
		t.Fatalf("peak concurrency %d, want 4", peak)
	}
}

func TestDiamondDependency(t *testing.T) {
	// a -> (b, c) -> d; d must observe both b and c.
	for trial := 0; trial < 30; trial++ {
		r := New(Options{Workers: 3})
		ka, kb, kc := key("a"), key("b"), key("c")
		var b, c int32
		var dSawBoth int32
		replayTasks(r,
			&Task{Label: "a", Out: []Dep{ka}},
			&Task{Label: "b", In: []Dep{ka}, Out: []Dep{kb}, Fn: func() { atomic.StoreInt32(&b, 1) }},
			&Task{Label: "c", In: []Dep{ka}, Out: []Dep{kc}, Fn: func() { atomic.StoreInt32(&c, 1) }},
			&Task{Label: "d", In: []Dep{kb, kc}, Fn: func() {
				if atomic.LoadInt32(&b) == 1 && atomic.LoadInt32(&c) == 1 {
					atomic.StoreInt32(&dSawBoth, 1)
				}
			}})
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
		r.Shutdown()
		if dSawBoth != 1 {
			t.Fatalf("trial %d: diamond join violated", trial)
		}
	}
}

func TestNilFnTaskCompletes(t *testing.T) {
	r := New(Options{Workers: 1})
	defer r.Shutdown()
	k := key("x")
	ran := false
	replayTasks(r,
		&Task{Label: "marker", Out: []Dep{k}}, // no body
		&Task{Label: "after", In: []Dep{k}, Fn: func() { ran = true }})
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("successor of nil-Fn task never ran")
	}
}

func TestPanicIsReportedAndGraphProceeds(t *testing.T) {
	r := New(Options{Workers: 2})
	defer r.Shutdown()
	k := key("x")
	after := false
	replayTasks(r,
		&Task{Label: "boom", Out: []Dep{k}, Fn: func() { panic("kaboom") }},
		&Task{Label: "after", In: []Dep{k}, Fn: func() { after = true }})
	err := r.Wait()
	if err == nil {
		t.Fatal("expected error from panicking task")
	}
	if !after {
		t.Fatal("successor should still run after predecessor panic")
	}
}

func TestWaitIsReusable(t *testing.T) {
	r := New(Options{Workers: 2})
	defer r.Shutdown()
	k := key("x")
	count := int32(0)
	for round := 0; round < 5; round++ {
		var tasks []*Task
		for i := 0; i < 10; i++ {
			tasks = append(tasks, &Task{InOut: []Dep{k}, Fn: func() { atomic.AddInt32(&count, 1) }})
		}
		replayTasks(r, tasks...)
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if count != 50 {
		t.Fatalf("got %d executions, want 50", count)
	}
}

func TestStatsCounters(t *testing.T) {
	r := New(Options{Workers: 2})
	defer r.Shutdown()
	k := key("x")
	var tasks []*Task
	for i := 0; i < 20; i++ {
		tasks = append(tasks, &Task{InOut: []Dep{k}, Fn: func() {}})
	}
	replayTasks(r, tasks...)
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	s := r.Stats()
	if s.Submitted != 20 || s.Executed != 20 {
		t.Fatalf("stats %+v", s)
	}
	if s.MaxRunning < 1 {
		t.Fatalf("MaxRunning %d", s.MaxRunning)
	}
}

func TestLocalityPolicyRunsCorrectly(t *testing.T) {
	// Same dependency semantics under the locality-aware policy.
	for trial := 0; trial < 20; trial++ {
		r := New(Options{Workers: 4, Policy: LocalityAware})
		var sum int64
		k := key("acc")
		var tasks []*Task
		for i := 1; i <= 100; i++ {
			tasks = append(tasks, &Task{InOut: []Dep{k}, Fn: func() { atomic.AddInt64(&sum, int64(i)) }})
		}
		// Plus independent tasks to exercise stealing.
		var indep int64
		for i := 0; i < 50; i++ {
			tasks = append(tasks, &Task{Fn: func() { atomic.AddInt64(&indep, 1) }})
		}
		replayTasks(r, tasks...)
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
		r.Shutdown()
		if sum != 5050 || indep != 50 {
			t.Fatalf("trial %d: sum=%d indep=%d", trial, sum, indep)
		}
	}
}

func TestLocalityPrefersProducingWorker(t *testing.T) {
	// With a chain of dependent tasks and the locality policy, successors
	// should mostly execute on the worker that made them ready.
	r := New(Options{Workers: 4, Policy: LocalityAware})
	k := key("chain")
	var tasks []*Task
	for i := 0; i < 200; i++ {
		tasks = append(tasks, &Task{Label: fmt.Sprintf("c%d", i), InOut: []Dep{k}, Fn: func() {}})
	}
	replayTasks(r, tasks...)
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	r.Shutdown()
	s := r.Stats()
	if s.LocalHits == 0 {
		t.Fatal("locality policy never used a local queue")
	}
}

func TestStressManyTasksManyKeys(t *testing.T) {
	r := New(Options{Workers: 8})
	defer r.Shutdown()
	const n = 5000
	keys := make([]key, 32)
	for i := range keys {
		keys[i] = key(fmt.Sprintf("k%d", i))
	}
	var count int64
	tasks := make([]*Task, n)
	for i := range tasks {
		in := []Dep{keys[i%len(keys)]}
		out := []Dep{keys[(i*7+3)%len(keys)]}
		tasks[i] = &Task{In: in, Out: out, Fn: func() { atomic.AddInt64(&count, 1) }}
	}
	replayTasks(r, tasks...)
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("executed %d of %d", count, n)
	}
}

// TestConcurrentSubmitters replays four distinct templates from four
// goroutines at once, each an InOut chain on its own key, five times each.
// Every chain must run in capture order and every body exactly once.
func TestConcurrentSubmitters(t *testing.T) {
	r := New(Options{Workers: 4})
	defer r.Shutdown()
	const goroutines, links, replays = 4, 500, 5
	var count int64
	var wg sync.WaitGroup
	var bad atomic.Int64
	for g := 0; g < goroutines; g++ {
		k := key(fmt.Sprintf("g%d", g))
		next := 0 // the chain's next link, written by the chain in order
		c := NewCapture()
		for i := 0; i < links; i++ {
			c.Submit(&Task{InOut: []Dep{k}, Fn: func() {
				if next != i {
					bad.Add(1)
				}
				next = (i + 1) % links
				atomic.AddInt64(&count, 1)
			}})
		}
		tpl := c.Freeze()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < replays; rep++ {
				r.Replay(tpl)
				// Wait drains every goroutine's replay, so this one's
				// template has drained too before it is replayed again.
				if err := r.Wait(); err != nil {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d out-of-order links or Wait errors", bad.Load())
	}
	if count != goroutines*links*replays {
		t.Fatalf("executed %d, want %d", count, goroutines*links*replays)
	}
}

func TestWorkersPanicOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Options{Workers: 0})
}

func TestPolicyString(t *testing.T) {
	if BreadthFirst.String() != "breadth-first" || LocalityAware.String() != "locality-aware" {
		t.Fatal("bad policy names")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy must still render")
	}
}

// collectSink records task completion records.
type collectSink struct {
	mu   sync.Mutex
	recs []TaskRecord
}

func (s *collectSink) TaskDone(r TaskRecord) {
	s.mu.Lock()
	s.recs = append(s.recs, r)
	s.mu.Unlock()
}
