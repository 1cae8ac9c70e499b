// Next-character prediction on the synthetic Wikipedia substitute — the
// paper's many-to-many evaluation workload — followed by greedy text
// generation from the trained model using a batch-1 view of the same
// weights.
//
//	go run ./examples/textgen
package main

import (
	"fmt"
	"log"
	"math"
	"runtime"

	"bpar/internal/core"
	"bpar/internal/data"
	"bpar/internal/rng"
	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

const vocab = 32

func main() {
	cfg := core.Config{
		Cell: core.GRU, Arch: core.ManyToMany, Merge: core.MergeSum,
		InputSize: vocab, HiddenSize: 96, Layers: 2, SeqLen: 24,
		Batch: 32, Classes: vocab, MiniBatches: 2, Seed: 3,
	}
	model, err := core.NewModel(cfg)
	if err != nil {
		log.Fatal(err)
	}

	rt := taskrt.New(taskrt.Options{Workers: runtime.GOMAXPROCS(0)})
	defer rt.Shutdown()
	engine := core.NewEngine(model, rt)
	engine.GradClip = 1.0

	corpus := data.NewTextCorpus(vocab, 300_000, 9)
	fmt.Printf("corpus preview: %q\n", corpus.Preview(60))
	fmt.Printf("training %v (%d params)\n", cfg, model.ParamCount())

	for step := 1; step <= 150; step++ {
		loss, err := engine.TrainStep(corpus.Batch(cfg.Batch, cfg.SeqLen), 0.25)
		if err != nil {
			log.Fatal(err)
		}
		if step%30 == 0 {
			fmt.Printf("step %3d: loss %.4f (uniform baseline %.4f)\n", step, loss, lnF(vocab))
		}
	}

	// Per-step accuracy on a held-out batch.
	eval := corpus.Batch(cfg.Batch, cfg.SeqLen)
	preds, loss, err := engine.Infer(eval)
	if err != nil {
		log.Fatal(err)
	}
	correct, total := 0, 0
	for t := range preds {
		for i, p := range preds[t] {
			if p == eval.StepTargets[t][i] {
				correct++
			}
			total++
		}
	}
	fmt.Printf("eval: loss %.4f, next-char accuracy %.1f%% (chance %.1f%%)\n",
		loss, 100*float64(correct)/float64(total), 100.0/vocab)

	// Greedy generation: a batch-1 view of the same weights predicts the
	// next character from a sliding window.
	genModel, err := model.WithBatch(1, 1)
	if err != nil {
		log.Fatal(err)
	}
	gen := core.NewEngine(genModel, taskrt.NewInline(nil))
	sampler := rng.New(17)
	window := make([]byte, cfg.SeqLen)
	for i := range window {
		window[i] = corpus.At(i)
	}
	var out []byte
	for n := 0; n < 48; n++ {
		b := &core.Batch{X: make([]*tensor.Matrix, cfg.SeqLen)}
		for t := 0; t < cfg.SeqLen; t++ {
			b.X[t] = tensor.New(1, vocab)
			b.X[t].Set(0, int(window[t]), 1)
		}
		probs, _, err := gen.InferProbs(b)
		if err != nil {
			log.Fatal(err)
		}
		// Sample the next character from the last head's distribution.
		next := sample(sampler, probs[cfg.SeqLen-1].Row(0))
		out = append(out, next)
		copy(window, window[1:])
		window[cfg.SeqLen-1] = next
	}
	fmt.Printf("generated continuation: %q\n", previewBytes(out))
}

// sample draws an index from a probability distribution.
func sample(r *rng.RNG, dist []float64) byte {
	roll := r.Float64()
	acc := 0.0
	for i, p := range dist {
		acc += p
		if roll < acc {
			return byte(i)
		}
	}
	return byte(len(dist) - 1)
}

// lnF returns ln(n) — the cross-entropy of a uniform predictor.
func lnF(n int) float64 { return math.Log(float64(n)) }

// previewBytes renders symbols with the corpus preview alphabet.
func previewBytes(bs []byte) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEF"
	out := make([]byte, len(bs))
	for i, b := range bs {
		out[i] = alphabet[int(b)%len(alphabet)]
	}
	return string(out)
}
