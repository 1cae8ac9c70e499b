// Attention: the paper's conclusion claims the B-Par task-graph execution
// model "could be easily applied to a wide range of deep learning models,
// including transformers and attention mechanisms." This example does it:
// a single-head self-attention layer runs as an annotated task graph on the
// same dependency runtime that executes BRNN cells, is verified bitwise
// against direct sequential execution, and is replayed on the simulated
// 48-core machine.
//
//	go run ./examples/attention
package main

import (
	"fmt"
	"log"
	"runtime"

	"bpar/internal/attention"
	"bpar/internal/costmodel"
	"bpar/internal/rng"
	"bpar/internal/sim"
	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

func main() {
	const (
		nSeq   = 16 // batch of independent sequences
		T      = 32 // tokens per sequence
		dIn    = 24
		dModel = 32
		dOut   = 24
	)
	w := attention.NewWeights(dIn, dModel, dOut)
	w.Init(rng.New(1))
	fmt.Printf("single-head self-attention: %d params, %d sequences x %d tokens\n",
		w.ParamCount(), nSeq, T)

	r := rng.New(2)
	xs := make([]*tensor.Matrix, nSeq)
	for i := range xs {
		xs[i] = tensor.New(T, dIn)
		r.FillUniform(xs[i].Data, -1, 1)
	}

	// 1. Run the batch as a task graph on the real dependency runtime.
	rt := taskrt.New(taskrt.Options{Workers: runtime.GOMAXPROCS(0), Policy: taskrt.LocalityAware})
	defer rt.Shutdown()
	states := make([]*attention.State, nSeq)
	for i := range states {
		states[i] = attention.NewState(w, T)
	}
	attention.EmitForward(rt, w, xs, states)
	if err := rt.Wait(); err != nil {
		log.Fatal(err)
	}
	st := rt.Stats()
	fmt.Printf("task runtime: %d tasks executed, max %d in flight\n", st.Executed, st.MaxRunning)

	// 2. Verify against direct sequential execution — same numerics.
	mismatches := 0
	for i := range xs {
		ref := attention.NewState(w, T)
		attention.Forward(w, xs[i], ref)
		if !ref.Out.Equal(states[i].Out) {
			mismatches++
		}
	}
	if mismatches == 0 {
		fmt.Println("task-graph outputs are bitwise identical to sequential execution ✓")
	} else {
		log.Fatalf("%d sequences diverged", mismatches)
	}

	// 3. Record the graph and replay it on the simulated 48-core Xeon.
	rec := taskrt.NewCapture()
	recStates := make([]*attention.State, nSeq)
	for i := range recStates {
		recStates[i] = attention.NewState(w, T)
	}
	attention.EmitForward(rec, w, xs, recStates)
	g := rec.Graph()
	fmt.Printf("recorded graph: %d tasks, width %d\n", len(g.Nodes), g.MaxWidth())
	machine := costmodel.XeonPlatinum8160x2()
	for _, cores := range []int{1, 8, 48} {
		res, err := sim.Run(g, sim.Options{Machine: machine, Cores: cores, Policy: sim.Locality})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  simulated %2d cores: %.3f ms (parallelism %.1f)\n",
			cores, res.MakespanSec*1000, res.AvgParallelism)
	}
}
