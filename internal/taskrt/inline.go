package taskrt

import (
	"errors"
	"fmt"
	"time"
)

// Inline is an Executor that runs a template's task bodies one at a time,
// in capture order, on the calling goroutine. Because B-Par builders emit
// tasks in topological order (Algorithms 2 and 3 create tasks in the order
// their dependencies allow), inline execution is a valid sequential schedule
// of the same graph. It is the reference implementation against which the
// parallel runtime is checked for bitwise equality, and it is how B-Seq
// processes each mini-batch internally.
type Inline struct {
	errs   []error
	sink   TraceSink
	nextID int
	start  time.Time
}

// NewInline returns an inline executor. sink may be nil.
func NewInline(sink TraceSink) *Inline {
	return &Inline{sink: sink, start: time.Now()}
}

// Submit runs the task body immediately. Every task — including Fn == nil
// placeholder tasks — gets an ID and is recorded with real timestamps.
func (e *Inline) Submit(t *Task) {
	id := e.nextID
	e.nextID++
	submitNS := time.Since(e.start).Nanoseconds()
	startT := time.Now()
	if t.Fn != nil {
		func() {
			defer func() {
				if p := recover(); p != nil {
					e.errs = append(e.errs, fmt.Errorf("taskrt: task %q panicked: %v", t.Label, p))
				}
			}()
			t.Fn()
		}()
	}
	endT := time.Now()
	if e.sink != nil {
		e.sink.TaskDone(TaskRecord{
			ID: id, Label: t.Label, Kind: t.Kind, Worker: 0,
			SubmitNS: submitNS,
			StartNS:  startT.Sub(e.start).Nanoseconds(),
			EndNS:    endT.Sub(e.start).Nanoseconds(),
			Flops:    t.Flops, WorkingSet: t.WorkingSet,
		})
	}
}

// Wait returns the joined errors produced by the tasks run since the last
// Wait, if any, and clears them.
func (e *Inline) Wait() error {
	err := errors.Join(e.errs...)
	e.errs = nil
	return err
}
