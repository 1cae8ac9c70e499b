// Quickstart: build a small bidirectional LSTM, train it with the B-Par
// task-graph execution model on this machine's cores, and run inference.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"runtime"

	"bpar/internal/core"
	"bpar/internal/data"
	"bpar/internal/taskrt"
)

func main() {
	// 1. Describe the model: a 2-layer many-to-one BLSTM classifying
	//    spoken digits from 20-dimensional acoustic-like frames.
	cfg := core.Config{
		Cell:        core.LSTM,
		Arch:        core.ManyToOne,
		Merge:       core.MergeSum, // Equation 11: H_fwd + H_rev
		InputSize:   20,
		HiddenSize:  48,
		Layers:      2,
		SeqLen:      16,
		Batch:       32,
		Classes:     data.NumDigits,
		MiniBatches: 2, // mbs:2 — data parallelism on top of model parallelism
		Seed:        42,
	}
	model, err := core.NewModel(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: %v (%d parameters)\n", cfg, model.ParamCount())

	// 2. Start the task runtime: one worker per core, with the paper's
	//    breadth-first scheduler. Every LSTM cell update, merge, and
	//    gradient task will be scheduled the moment its data dependencies
	//    resolve — no per-layer barriers.
	rt := taskrt.New(taskrt.Options{Workers: runtime.GOMAXPROCS(0)})
	defer rt.Shutdown()

	engine := core.NewEngine(model, rt)
	engine.GradClip = 1.0

	// 3. Train on the synthetic TIDIGITS substitute.
	corpus := data.NewSpeechCorpus(cfg.InputSize, 7)
	for step := 1; step <= 60; step++ {
		batch := corpus.Batch(cfg.Batch, cfg.SeqLen)
		loss, err := engine.TrainStep(batch, 0.15)
		if err != nil {
			log.Fatal(err)
		}
		if step%15 == 0 {
			fmt.Printf("step %3d: loss %.4f\n", step, loss)
		}
	}

	// 4. Inference: classify fresh utterances.
	test := corpus.Batch(cfg.Batch, cfg.SeqLen)
	preds, loss, err := engine.Infer(test)
	if err != nil {
		log.Fatal(err)
	}
	correct := 0
	for i, p := range preds[0] {
		if p == test.Targets[i] {
			correct++
		}
	}
	fmt.Printf("eval: loss %.4f, accuracy %d/%d\n", loss, correct, cfg.Batch)

	// 5. The runtime kept overheads small relative to task work.
	st := rt.Stats()
	fmt.Printf("runtime: %d tasks, overhead ratio %.4f, peak parallel tasks %d\n",
		st.Executed, st.OverheadRatio(), st.MaxRunning)
}
