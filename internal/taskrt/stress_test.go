package taskrt

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stressSpec is one randomly generated task: the keys it touches and, for
// every key it reads or overwrites, the ID of the writer it must observe.
type stressSpec struct {
	id             int
	in, out, inout []int
	// expect maps key -> ID of the last preceding writer of that key
	// (-1 if none), computed by a sequential reference derivation. If the
	// runtime honors RAW/WAR/WAW edges, the task observes exactly this
	// writer in the shared state array at execution time.
	expect map[int]int
}

// buildStressDAG generates nTasks random tasks over nKeys dependency keys
// and computes each task's expected observations.
func buildStressDAG(rng *rand.Rand, nTasks, nKeys int) []*stressSpec {
	lastWriter := make([]int, nKeys)
	for k := range lastWriter {
		lastWriter[k] = -1
	}
	specs := make([]*stressSpec, nTasks)
	for i := 0; i < nTasks; i++ {
		s := &stressSpec{id: i, expect: map[int]int{}}
		used := map[int]bool{}
		pick := func() (int, bool) {
			k := rng.Intn(nKeys)
			if used[k] {
				return 0, false
			}
			used[k] = true
			return k, true
		}
		for n := rng.Intn(3); n > 0; n-- {
			if k, ok := pick(); ok {
				s.in = append(s.in, k)
				s.expect[k] = lastWriter[k]
			}
		}
		if rng.Intn(2) == 0 {
			if k, ok := pick(); ok {
				s.inout = append(s.inout, k)
				s.expect[k] = lastWriter[k]
				lastWriter[k] = i
			}
		}
		if rng.Intn(2) == 0 {
			if k, ok := pick(); ok {
				s.out = append(s.out, k)
				s.expect[k] = lastWriter[k]
				lastWriter[k] = i
			}
		}
		specs[i] = s
	}
	return specs
}

// stressTasks builds the task stream of the generated DAG over a fresh
// shared state array. Each body checks that it observes exactly the writers
// the reference derivation expects, counting mismatches into viol and
// executed bodies into execd.
func stressTasks(specs []*stressSpec, nKeys int) (tasks []*Task, viol, execd *atomic.Int64) {
	state := make([]atomic.Int64, nKeys)
	for k := range state {
		state[k].Store(-1)
	}
	viol, execd = new(atomic.Int64), new(atomic.Int64)
	deps := func(ks []int) []Dep {
		out := make([]Dep, len(ks))
		for i, k := range ks {
			out[i] = k
		}
		return out
	}
	for _, s := range specs {
		s := s
		tasks = append(tasks, &Task{
			Label: fmt.Sprintf("stress-%d", s.id),
			Kind:  "stress",
			In:    deps(s.in), Out: deps(s.out), InOut: deps(s.inout),
			Fn: func() {
				for k, want := range s.expect {
					if got := state[k].Load(); got != int64(want) {
						viol.Add(1)
					}
				}
				for _, k := range s.inout {
					state[k].Store(int64(s.id))
				}
				for _, k := range s.out {
					state[k].Store(int64(s.id))
				}
				execd.Add(1)
			},
		})
	}
	return tasks, viol, execd
}

// runStressDAG captures and freezes the generated DAG, replays the template
// on e, and returns the number of dependency violations observed and task
// bodies executed.
func runStressDAG(specs []*stressSpec, nKeys int, e Executor) (violations, executed int64) {
	tasks, viol, execd := stressTasks(specs, nKeys)
	c := NewCapture()
	c.SubmitAll(tasks)
	e.Replay(c.Freeze())
	if err := e.Wait(); err != nil {
		viol.Add(1)
	}
	return viol.Load(), execd.Load()
}

// TestStressRandomDAG checks that the parallel runtime replays randomized
// dependency graphs with exactly the ordering the annotations imply, across
// worker counts, against the Inline reference. The
// reference is buildStressDAG's sequential last-writer walk, not the
// dependency table, so it also checks the deriver and the reduction.
func TestStressRandomDAG(t *testing.T) {
	const nTasks, nKeys = 250, 24
	for _, workers := range []int{1, 2, 4, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("breadth-first/w%d/seed%d", workers, seed)
			t.Run(name, func(t *testing.T) {
				specs := buildStressDAG(rand.New(rand.NewSource(seed)), nTasks, nKeys)

				if v, n := runStressDAG(specs, nKeys, NewInline(nil)); v != 0 || n != nTasks {
					t.Fatalf("inline reference: %d violations, %d executed", v, n)
				}

				rt := New(Options{Workers: workers})
				defer rt.Shutdown()
				v, n := runStressDAG(specs, nKeys, rt)
				if v != 0 {
					t.Fatalf("%d dependency violations", v)
				}
				if n != nTasks {
					t.Fatalf("executed %d of %d tasks", n, nTasks)
				}
				st := rt.Stats()
				if st.Submitted != nTasks || st.Executed != nTasks {
					t.Fatalf("stats submitted=%d executed=%d", st.Submitted, st.Executed)
				}
			})
		}
	}
}

// TestSubmitAllChain pins the call shape of bench's taskrt.submit probe on
// the SubmitAll and ResetDeps shims: SubmitAll, Wait, ResetDeps, SubmitAll,
// Wait over a chain of diamonds, on a depcheck runtime. Every body must run
// twice, in dependency order, and Wait must return nil (the probe panics on
// a Wait error).
func TestSubmitAllChain(t *testing.T) {
	const diamonds = 16
	rt := New(Options{Workers: 4, DepCheck: true})
	defer rt.Shutdown()
	var mu sync.Mutex
	var order []int
	keys := make([]int, 4*diamonds)
	var tasks []*Task
	var prev *int
	for d := 0; d < diamonds; d++ {
		top, left, right, bottom := &keys[4*d], &keys[4*d+1], &keys[4*d+2], &keys[4*d+3]
		ts := []*Task{
			{Out: []Dep{top}},
			{In: []Dep{top}, Out: []Dep{left}},
			{In: []Dep{top}, Out: []Dep{right}},
			{In: []Dep{left, right}, Out: []Dep{bottom}},
		}
		if prev != nil {
			ts[0].In = []Dep{prev}
		}
		for i, tk := range ts {
			id := len(tasks) + i
			tk.Label = fmt.Sprintf("d%d-%d", d, i)
			tk.Fn = func() {
				mu.Lock()
				order = append(order, id)
				mu.Unlock()
			}
		}
		tasks = append(tasks, ts...)
		prev = bottom
	}
	for round := 0; round < 2; round++ {
		if round > 0 {
			rt.ResetDeps()
		}
		mu.Lock()
		order = order[:0]
		mu.Unlock()
		rt.SubmitAll(tasks)
		if err := rt.Wait(); err != nil {
			t.Fatalf("round %d: Wait = %v", round, err)
		}
		if len(order) != len(tasks) {
			t.Fatalf("round %d: ran %d of %d", round, len(order), len(tasks))
		}
		// Within a diamond the top runs first and the bottom last; the
		// next diamond's top follows the bottom.
		for i, id := range order {
			if d, pos := id/4, id%4; (pos == 0 && i != 4*d) || (pos == 3 && i != 4*d+3) {
				t.Fatalf("round %d: task %d ran at %d: %v", round, id, i, order)
			}
		}
	}
	if st := rt.Stats(); st.Executed != 2*int64(len(tasks)) {
		t.Fatalf("executed %d, want %d", st.Executed, 2*len(tasks))
	}
}

// TestConcurrentWaitDrain parks four goroutines in Wait while a 10k-task
// InOut chain drains. Completion wakes Wait only at the drain, so every
// waiter must be woken by that one broadcast (or see the drain itself) and
// observe every link's write; under -race this also checks the
// happens-before edge from the final completion to each waiter.
func TestConcurrentWaitDrain(t *testing.T) {
	rt := New(Options{Workers: 4})
	defer rt.Shutdown()
	const n, waiters = 10000, 4
	release := make(chan struct{})
	links := 0 // written by the chain in order, read by the waiters after Wait
	k := key("chain")
	tasks := make([]*Task, n)
	for i := range tasks {
		tasks[i] = &Task{Label: "link", InOut: []Dep{k}, Fn: func() { links++ }}
	}
	tasks[0].Fn = func() {
		<-release
		links++
	}
	replayTasks(rt, tasks...)
	var wg sync.WaitGroup
	var bad atomic.Int64
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := rt.Wait(); err != nil || links != n {
				bad.Add(1)
			}
		}()
	}
	for rt.doneWaiters.Load() < waiters {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d of %d waiters returned before the chain drained", bad.Load(), waiters)
	}
}

// TestIdleAndStealCounters checks that the idle counters are populated:
// workers blocked with no runnable work accrue idle time visible mid-run.
func TestIdleAndStealCounters(t *testing.T) {
	rt := New(Options{Workers: 3})
	defer rt.Shutdown()
	release := make(chan struct{})
	replayTasks(rt, &Task{Label: "block", Fn: func() { <-release }})
	time.Sleep(20 * time.Millisecond) // let the other workers park
	st := rt.Stats()
	if len(st.WorkerIdleNS) != 3 {
		t.Fatalf("WorkerIdleNS has %d entries, want 3", len(st.WorkerIdleNS))
	}
	if st.IdleNS() <= 0 {
		t.Fatalf("IdleNS=%d, want > 0 with parked workers", st.IdleNS())
	}
	close(release)
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestWaitJoinsAllErrors checks both executors report every task failure,
// not just the first, with the same panic label format.
func TestWaitJoinsAllErrors(t *testing.T) {
	check := func(name string, err error) {
		if err == nil {
			t.Fatalf("%s: expected error", name)
		}
		for _, want := range []string{`task "boom1" panicked`, `task "boom2" panicked`} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q missing %q", name, err, want)
			}
		}
	}

	inl := NewInline(nil)
	inl.Submit(&Task{Label: "boom1", Fn: func() { panic("x") }})
	inl.Submit(&Task{Label: "boom2", Fn: func() { panic("y") }})
	check("inline", inl.Wait())

	rt := New(Options{Workers: 2})
	defer rt.Shutdown()
	replayTasks(rt,
		&Task{Label: "boom1", Fn: func() { panic("x") }},
		&Task{Label: "boom2", Fn: func() { panic("y") }})
	check("runtime", rt.Wait())
}
