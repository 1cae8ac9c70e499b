package taskrt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// key is a convenient comparable dependency key for tests.
type key string

func TestSingleTaskRuns(t *testing.T) {
	r := New(Options{Workers: 2})
	defer r.Shutdown()
	ran := int32(0)
	r.Submit(&Task{Label: "t", Fn: func() { atomic.AddInt32(&ran, 1) }})
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
		r.Submit(&Task{Label: "w", Out: []Dep{k}, Fn: func() { atomic.StoreInt32(&wrote, 1) }})
		r.Submit(&Task{Label: "r", In: []Dep{k}, Fn: func() {
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
		r.Submit(&Task{Label: "w1", Out: []Dep{k}, Fn: logT("w1")})
		r.Submit(&Task{Label: "r1", In: []Dep{k}, Fn: logT("r1")})
		r.Submit(&Task{Label: "r2", In: []Dep{k}, Fn: logT("r2")})
		r.Submit(&Task{Label: "w2", Out: []Dep{k}, Fn: logT("w2")}) // WAR on r1,r2; WAW on w1
		r.Submit(&Task{Label: "r3", In: []Dep{k}, Fn: logT("r3")})  // RAW on w2
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
	for i := 0; i < n; i++ {
		i := i
		r.Submit(&Task{Label: fmt.Sprintf("acc%d", i), InOut: []Dep{k}, Fn: func() {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
		}})
	}
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
	for i := 0; i < 4; i++ {
		r.Submit(&Task{Label: "p", Fn: func() {
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
		r.Submit(&Task{Label: "a", Out: []Dep{ka}})
		r.Submit(&Task{Label: "b", In: []Dep{ka}, Out: []Dep{kb}, Fn: func() { atomic.StoreInt32(&b, 1) }})
		r.Submit(&Task{Label: "c", In: []Dep{ka}, Out: []Dep{kc}, Fn: func() { atomic.StoreInt32(&c, 1) }})
		r.Submit(&Task{Label: "d", In: []Dep{kb, kc}, Fn: func() {
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
	r.Submit(&Task{Label: "marker", Out: []Dep{k}}) // no body
	r.Submit(&Task{Label: "after", In: []Dep{k}, Fn: func() { ran = true }})
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
	r.Submit(&Task{Label: "boom", Out: []Dep{k}, Fn: func() { panic("kaboom") }})
	r.Submit(&Task{Label: "after", In: []Dep{k}, Fn: func() { after = true }})
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
		for i := 0; i < 10; i++ {
			r.Submit(&Task{InOut: []Dep{k}, Fn: func() { atomic.AddInt32(&count, 1) }})
		}
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if count != 50 {
		t.Fatalf("got %d executions, want 50", count)
	}
}

func TestResetDeps(t *testing.T) {
	r := New(Options{Workers: 2})
	defer r.Shutdown()
	k := key("x")
	r.Submit(&Task{Out: []Dep{k}})
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	r.ResetDeps()
	// After reset, a reader of k has no predecessor and runs immediately.
	ran := false
	r.Submit(&Task{In: []Dep{k}, Fn: func() { ran = true }})
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("task did not run after ResetDeps")
	}
}

func TestResetDepsPanicsWithOutstanding(t *testing.T) {
	r := New(Options{Workers: 1})
	defer r.Shutdown()
	block := make(chan struct{})
	r.Submit(&Task{Fn: func() { <-block }})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
			close(block)
		}()
		r.ResetDeps()
	}()
	_ = r.Wait()
}

func TestStatsCounters(t *testing.T) {
	r := New(Options{Workers: 2})
	defer r.Shutdown()
	k := key("x")
	for i := 0; i < 20; i++ {
		r.Submit(&Task{InOut: []Dep{k}, Fn: func() {}})
	}
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
		for i := 1; i <= 100; i++ {
			i := i
			r.Submit(&Task{InOut: []Dep{k}, Fn: func() { atomic.AddInt64(&sum, int64(i)) }})
		}
		// Plus independent tasks to exercise stealing.
		var indep int64
		for i := 0; i < 50; i++ {
			r.Submit(&Task{Fn: func() { atomic.AddInt64(&indep, 1) }})
		}
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
	for i := 0; i < 200; i++ {
		r.Submit(&Task{Label: fmt.Sprintf("c%d", i), InOut: []Dep{k}, Fn: func() {}})
	}
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
	for i := 0; i < n; i++ {
		in := []Dep{keys[i%len(keys)]}
		out := []Dep{keys[(i*7+3)%len(keys)]}
		r.Submit(&Task{In: in, Out: out, Fn: func() { atomic.AddInt64(&count, 1) }})
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("executed %d of %d", count, n)
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	r := New(Options{Workers: 4})
	defer r.Shutdown()
	var count int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := key(fmt.Sprintf("g%d", g))
			for i := 0; i < 500; i++ {
				r.Submit(&Task{InOut: []Dep{k}, Fn: func() { atomic.AddInt64(&count, 1) }})
			}
		}(g)
	}
	wg.Wait()
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if count != 2000 {
		t.Fatalf("executed %d, want 2000", count)
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
