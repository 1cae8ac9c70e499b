// Speech recognition on the synthetic TIDIGITS substitute — the paper's
// many-to-one evaluation workload. Trains a deep BLSTM with proper
// train/eval separation and contrasts B-Par against the B-Seq baseline on
// the same weights, demonstrating that the two produce identical numerics
// while B-Par exposes far more parallelism.
//
//	go run ./examples/speech
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"bpar/internal/core"
	"bpar/internal/data"
	"bpar/internal/taskrt"
)

func main() {
	cfg := core.Config{
		Cell: core.LSTM, Arch: core.ManyToOne, Merge: core.MergeSum,
		InputSize: 24, HiddenSize: 64, Layers: 3, SeqLen: 20,
		Batch: 32, Classes: data.NumDigits, MiniBatches: 4, Seed: 11,
	}

	// Two models from the same seed: one trained by B-Par, one by B-Seq.
	mPar, err := core.NewModel(cfg)
	if err != nil {
		log.Fatal(err)
	}
	mSeq, err := core.NewModel(cfg)
	if err != nil {
		log.Fatal(err)
	}

	workers := runtime.GOMAXPROCS(0)
	rt := taskrt.New(taskrt.Options{Workers: workers})
	defer rt.Shutdown()

	par := core.NewEngine(mPar, rt)
	par.GradClip = 1.0
	seq := core.NewBSeq(mSeq, rt)

	trainCorpus := data.NewSpeechCorpus(cfg.InputSize, 100)
	// Same digit templates, independent utterance stream: genuinely
	// held-out speakers of the same "language".
	evalCorpus := trainCorpus.Fork(999)

	const steps = 80
	fmt.Printf("training %d steps of %v on %d workers\n", steps, cfg, workers)

	var parTime, seqTime time.Duration
	for step := 1; step <= steps; step++ {
		batch := trainCorpus.Batch(cfg.Batch, cfg.SeqLen)

		t0 := time.Now()
		lossPar, err := par.TrainStep(batch, 0.12)
		if err != nil {
			log.Fatal(err)
		}
		parTime += time.Since(t0)

		t0 = time.Now()
		lossSeq, err := seq.TrainStep(batch, 0.12)
		if err != nil {
			log.Fatal(err)
		}
		seqTime += time.Since(t0)

		if step%20 == 0 {
			fmt.Printf("step %3d: B-Par loss %.4f | B-Seq loss %.4f\n", step, lossPar, lossSeq)
		}
	}

	// The executions are numerically identical — the paper's accuracy
	// preservation claim, in its strongest (bitwise) form.
	if mPar.WeightsEqual(mSeq) {
		fmt.Println("B-Par and B-Seq weights are bitwise identical ✓")
	} else {
		fmt.Printf("WARNING: weights diverged by %g\n", mPar.WeightsMaxAbsDiff(mSeq))
	}
	fmt.Printf("wall time: B-Par %v, B-Seq %v\n", parTime.Round(time.Millisecond), seqTime.Round(time.Millisecond))

	// Evaluate on held-out utterances.
	eval := evalCorpus.Batch(cfg.Batch, cfg.SeqLen)
	preds, loss, err := par.Infer(eval)
	if err != nil {
		log.Fatal(err)
	}
	correct := 0
	for i, p := range preds[0] {
		if p == eval.Targets[i] {
			correct++
		}
	}
	fmt.Printf("held-out: loss %.4f, accuracy %d/%d (%0.1f%%, chance %.1f%%)\n",
		loss, correct, cfg.Batch, 100*float64(correct)/float64(cfg.Batch), 100.0/float64(cfg.Classes))
}
