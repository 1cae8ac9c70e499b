// Checkpointing: train a model with the Adam optimizer, save it to disk
// mid-run, reload it into a fresh process state, and verify the resumed
// model is bit-for-bit the one that was saved.
//
//	go run ./examples/checkpoint
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"

	"bpar/internal/core"
	"bpar/internal/data"
	"bpar/internal/taskrt"
)

func main() {
	cfg := core.Config{
		Cell: core.LSTM, Arch: core.ManyToOne, Merge: core.MergeSum,
		InputSize: 16, HiddenSize: 40, Layers: 2, SeqLen: 12,
		Batch: 24, Classes: data.NumDigits, MiniBatches: 2, Seed: 21,
	}
	model, err := core.NewModel(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rt := taskrt.New(taskrt.Options{Workers: runtime.GOMAXPROCS(0), Policy: taskrt.LocalityAware})
	defer rt.Shutdown()

	engine := core.NewEngine(model, rt)
	engine.Adam = true // Adam on top of B-Par's task graphs
	corpus := data.NewSpeechCorpus(cfg.InputSize, 4)

	fmt.Println("phase 1: train 40 steps with Adam")
	for step := 1; step <= 40; step++ {
		loss, err := engine.TrainStep(corpus.Batch(cfg.Batch, cfg.SeqLen), 0.005)
		if err != nil {
			log.Fatal(err)
		}
		if step%10 == 0 {
			fmt.Printf("  step %2d: loss %.4f\n", step, loss)
		}
	}

	// Checkpoint.
	path := filepath.Join(os.TempDir(), "bpar-checkpoint.bin")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := model.Save(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(path)
	fmt.Printf("checkpointed %d params (+%d head) to %s (%d bytes)\n",
		model.ParamCount(), cfg.HeadParamCount(), path, info.Size())

	// Reload and verify.
	g, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	restored, err := core.LoadModel(g)
	if cerr := g.Close(); cerr != nil {
		log.Fatal(cerr)
	}
	if err != nil {
		log.Fatal(err)
	}
	if restored.WeightsEqual(model) {
		fmt.Println("restored weights are bitwise identical ✓")
	} else {
		log.Fatalf("restore mismatch: %g", restored.WeightsMaxAbsDiff(model))
	}

	// Resume training from the checkpoint and confirm progress continues.
	fmt.Println("phase 2: resume 40 more steps from the checkpoint")
	resumed := core.NewEngine(restored, rt)
	resumed.Adam = true
	var last float64
	for step := 1; step <= 40; step++ {
		last, err = resumed.TrainStep(corpus.Batch(cfg.Batch, cfg.SeqLen), 0.005)
		if err != nil {
			log.Fatal(err)
		}
		if step%10 == 0 {
			fmt.Printf("  step %2d: loss %.4f\n", step, last)
		}
	}
	eval := corpus.Fork(5).Batch(cfg.Batch, cfg.SeqLen)
	preds, loss, err := resumed.Infer(eval)
	if err != nil {
		log.Fatal(err)
	}
	correct := 0
	for i, p := range preds[0] {
		if p == eval.Targets[i] {
			correct++
		}
	}
	fmt.Printf("held-out after resume: loss %.4f, accuracy %d/%d\n", loss, correct, cfg.Batch)
	_ = os.Remove(path)
}
