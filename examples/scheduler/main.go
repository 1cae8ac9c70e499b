// Scheduler tour: drive the task-dependency runtime directly, record a real
// B-Par task graph, and replay it on the simulated 48-core platform with
// both scheduling policies. This is the example to read to understand what
// the runtime and simulator do underneath the training API.
//
//	go run ./examples/scheduler
package main

import (
	"fmt"
	"log"
	"sync/atomic"

	"bpar/internal/baseline"
	"bpar/internal/core"
	"bpar/internal/costmodel"
	"bpar/internal/sim"
	"bpar/internal/taskrt"
)

func main() {
	directRuntimeDemo()
	graphReplayDemo()
}

// directRuntimeDemo captures hand-annotated tasks, exactly like the pragma
// annotations of the paper's Algorithm 2: in(...) out(...) clauses on
// buffers. The capture derives the dependency graph once; the runtime
// replays it, running what it can in parallel.
func directRuntimeDemo() {
	fmt.Println("== direct runtime: a diamond of tasks ==")
	rt := taskrt.New(taskrt.Options{Workers: 4})
	defer rt.Shutdown()

	// Dependency keys are just addresses of the data tasks touch.
	type buf struct{ vals [4]float64 }
	a, b, c := &buf{}, &buf{}, &buf{}
	var order int64
	capture := taskrt.NewCapture()

	stamp := func(name string) int64 {
		n := atomic.AddInt64(&order, 1)
		suffix := map[int64]string{1: "st", 2: "nd", 3: "rd"}[n]
		if suffix == "" {
			suffix = "th"
		}
		fmt.Printf("  %-12s ran %d%s\n", name, n, suffix)
		return n
	}

	capture.Submit(&taskrt.Task{
		Label: "produce-a", Out: []taskrt.Dep{a},
		Fn: func() { a.vals[0] = 1; stamp("produce-a") },
	})
	capture.Submit(&taskrt.Task{
		Label: "a-to-b", In: []taskrt.Dep{a}, Out: []taskrt.Dep{b},
		Fn: func() { b.vals[0] = a.vals[0] * 2; stamp("a-to-b") },
	})
	capture.Submit(&taskrt.Task{
		Label: "a-to-c", In: []taskrt.Dep{a}, Out: []taskrt.Dep{c},
		Fn: func() { c.vals[0] = a.vals[0] + 10; stamp("a-to-c") },
	})
	capture.Submit(&taskrt.Task{
		Label: "join-bc", In: []taskrt.Dep{b, c},
		Fn: func() { stamp("join-bc"); fmt.Printf("  result: %g\n", b.vals[0]+c.vals[0]) },
	})
	rt.Replay(capture.Freeze())
	if err := rt.Wait(); err != nil {
		log.Fatal(err)
	}
	st := rt.Stats()
	fmt.Printf("  stats: %d tasks, max %d running concurrently\n\n", st.Executed, st.MaxRunning)
}

// graphReplayDemo records the paper's B-Par training graph of one batch (one
// task per cell, built from the configuration alone) and replays it on the
// simulated dual-socket Xeon, comparing breadth-first FIFO against
// locality-aware scheduling — a miniature of the paper's Figure 7.
func graphReplayDemo() {
	fmt.Println("== recorded B-Par graph on the simulated 48-core Xeon ==")
	cfg := core.Config{
		Cell: core.LSTM, Arch: core.ManyToOne, Merge: core.MergeSum,
		InputSize: 256, HiddenSize: 512, Layers: 4, SeqLen: 50,
		Batch: 128, Classes: 11, MiniBatches: 6, Seed: 1,
	}
	g, err := baseline.TrainGraph(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %v\n  graph: %d tasks, %.1f GFLOP, critical path %.1f GFLOP, width %d\n",
		cfg, len(g.Nodes), g.TotalFlops()/1e9, g.CriticalPathFlops()/1e9, g.MaxWidth())

	machine := costmodel.XeonPlatinum8160x2()
	for _, pol := range []sim.Policy{sim.FIFO, sim.Locality} {
		r, err := sim.Run(g, sim.Options{Machine: machine, Cores: 48, Policy: pol})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-15s makespan %.3fs, parallelism %.1f, cache-hit %.2f\n",
			pol, r.MakespanSec, r.AvgParallelism, r.AvgHitRatio)
	}
}
