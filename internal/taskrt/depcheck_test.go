package taskrt

import (
	"strings"
	"testing"
)

// mustPanic runs f and returns the recovered panic message, failing the test
// if f returns normally.
func mustPanic(t *testing.T, f func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			if p := recover(); p != nil {
				msg = p.(string)
			}
		}()
		f()
		t.Fatal("expected panic, got normal return")
	}()
	return msg
}

type depBuf struct{ vals []float64 }

func TestDepCheckCleanRunReportsNothing(t *testing.T) {
	r := New(Options{Workers: 4, DepCheck: true})
	defer r.Shutdown()
	dc := r.DepChecker()
	if dc == nil {
		t.Fatal("DepChecker() = nil with DepCheck enabled")
	}

	a, b := &depBuf{vals: make([]float64, 4)}, &depBuf{vals: make([]float64, 4)}
	kA, kB := Dep(a), Dep(b)
	dc.Register(kA, "bufA", a)
	dc.Register(kB, "bufB", b)

	replayTasks(r,
		&Task{Label: "produce-a", Out: []Dep{kA}, Fn: func() {
			dc.NoteWrite(a)
			a.vals[0] = 1
		}},
		&Task{Label: "a-to-b", In: []Dep{kA}, Out: []Dep{kB}, Fn: func() {
			dc.NoteRead(a)
			dc.NoteWrite(b)
			b.vals[0] = a.vals[0] * 2
		}},
		&Task{Label: "bump-b", InOut: []Dep{kB}, Fn: func() {
			dc.NoteRead(b)
			dc.NoteWrite(b)
			b.vals[0]++
		}})
	if err := r.Wait(); err != nil {
		t.Fatalf("clean run reported violations: %v", err)
	}
	if b.vals[0] != 3 {
		t.Fatalf("b = %v, want 3", b.vals[0])
	}
}

func TestDepCheckUndeclaredWrite(t *testing.T) {
	r := New(Options{Workers: 2, DepCheck: true})
	defer r.Shutdown()
	dc := r.DepChecker()

	a, b := &depBuf{}, &depBuf{}
	dc.Register(Dep(a), "declared-buf", a)
	dc.Register(Dep(b), "victim-buf", b)

	// The task declares only a, but its body also scribbles on b.
	replayTasks(r, &Task{Label: "sneaky-writer", Out: []Dep{Dep(a)}, Fn: func() {
		dc.NoteWrite(a)
		dc.NoteWrite(b)
	}})
	err := r.Wait()
	if err == nil {
		t.Fatal("undeclared write not reported")
	}
	for _, want := range []string{"undeclared write", "sneaky-writer", "victim-buf"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestDepCheckUndeclaredRead(t *testing.T) {
	r := New(Options{Workers: 2, DepCheck: true})
	defer r.Shutdown()
	dc := r.DepChecker()

	a, b := &depBuf{}, &depBuf{}
	dc.Register(Dep(a), "out-buf", a)
	dc.RegisterStep(Dep(b), "input-buf", b)

	replayTasks(r, &Task{Label: "sneaky-reader", Out: []Dep{Dep(a)}, Fn: func() {
		dc.NoteRead(b)
		dc.NoteWrite(a)
	}})
	err := r.Wait()
	if err == nil {
		t.Fatal("undeclared read not reported")
	}
	for _, want := range []string{"undeclared read", "sneaky-reader", "input-buf"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestDepCheckScratchBuffersIgnored(t *testing.T) {
	r := New(Options{Workers: 2, DepCheck: true})
	defer r.Shutdown()
	dc := r.DepChecker()
	scratch := &depBuf{}
	replayTasks(r, &Task{Label: "scratch-user", Fn: func() {
		dc.NoteWrite(scratch) // never registered: not attributable, not an error
		dc.NoteRead(scratch)
	}})
	if err := r.Wait(); err != nil {
		t.Fatalf("scratch access reported: %v", err)
	}
}

func TestDepCheckSelfDependency(t *testing.T) {
	r := New(Options{Workers: 2, DepCheck: true})
	defer r.Shutdown()
	k := Dep(&depBuf{})
	r.DepChecker().Register(k, "self-key")
	replayTasks(r, &Task{Label: "own-tail", In: []Dep{k}, Out: []Dep{k}, Fn: func() {}})
	err := r.Wait()
	if err == nil {
		t.Fatal("self-dependency not reported")
	}
	for _, want := range []string{"self-dependency", "own-tail", "self-key", `"own-tail" -> "own-tail"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestDepCheckSchedulingViolations drives the checker directly, simulating a
// broken scheduler that runs a reader before its declared writer (RAW) and
// reorders two writers (WAW) — schedules the real runtime never produces, so
// the detection arms must be exercised white-box.
func TestDepCheckSchedulingViolations(t *testing.T) {
	t.Run("RAW", func(t *testing.T) {
		dc := newDepChecker()
		k := Dep(&depBuf{})
		dc.Register(k, "raw-key")
		w := &Task{Label: "writer", Out: []Dep{k}}
		rd := &Task{Label: "reader", In: []Dep{k}}
		dc.announce([]*Task{w, rd})
		dc.begin(rd) // reader runs first: writer's version not yet retired
		dc.end(rd)
		dc.begin(w)
		dc.end(w)
		errs := dc.take()
		if len(errs) == 0 {
			t.Fatal("RAW violation not reported")
		}
		for _, want := range []string{"RAW violation", "reader", "raw-key", `"writer"`} {
			if !strings.Contains(errs[0].Error(), want) {
				t.Errorf("error %q missing %q", errs[0], want)
			}
		}
	})
	t.Run("WAW", func(t *testing.T) {
		dc := newDepChecker()
		k := Dep(&depBuf{})
		dc.Register(k, "waw-key")
		w1 := &Task{Label: "first-writer", Out: []Dep{k}}
		w2 := &Task{Label: "second-writer", Out: []Dep{k}}
		dc.announce([]*Task{w1, w2})
		dc.begin(w2) // writers swapped
		dc.end(w2)
		dc.begin(w1)
		dc.end(w1)
		var found bool
		for _, e := range dc.take() {
			if strings.Contains(e.Error(), "WAW violation") &&
				strings.Contains(e.Error(), "second-writer") &&
				strings.Contains(e.Error(), "waw-key") {
				found = true
			}
		}
		if !found {
			t.Fatal("WAW violation not reported")
		}
	})
}

// TestDepCheckResetStepOwners checks that ResetStepOwners drops per-step
// buffer registrations while shadow versions keep advancing: after it,
// touching the buffer is not attributable, and a writer of the key in the
// next replay still sees the version the first replay left.
func TestDepCheckResetStepOwners(t *testing.T) {
	r := New(Options{Workers: 2, DepCheck: true})
	defer r.Shutdown()
	dc := r.DepChecker()
	a := &depBuf{}
	k := Dep(a)
	dc.RegisterStep(k, "step-buf", a)
	replayTasks(r, &Task{Label: "w", Out: []Dep{k}, Fn: func() { dc.NoteWrite(a) }})
	if err := r.Wait(); err != nil {
		t.Fatalf("step 1: %v", err)
	}
	dc.ResetStepOwners()
	replayTasks(r,
		&Task{Label: "untracked", Fn: func() { dc.NoteWrite(a) }},
		&Task{Label: "w2", Out: []Dep{k}, Fn: func() {}})
	if err := r.Wait(); err != nil {
		t.Fatalf("step 2 after ResetStepOwners: %v", err)
	}
}
