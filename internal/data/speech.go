// Package data generates the two evaluation workloads as synthetic
// substitutes for corpora this repository cannot ship:
//
//   - SpeechCorpus stands in for the TIDIGITS connected-digit corpus
//     (proprietary, Texas Instruments): spoken digits rendered as
//     per-frame acoustic-like feature vectors, consumed by many-to-one
//     BRNN classification.
//   - TextCorpus stands in for the 1.4-billion-character Wikipedia dump:
//     a seeded Markov chain over a character vocabulary, consumed by
//     many-to-many next-character prediction.
//
// Both generators are deterministic given a seed, produce exactly the
// tensor shapes the paper's models consume, and have enough structure to be
// learnable — which is all the evaluation requires, since the paper's claims
// are about execution time and accuracy *preservation*, not absolute
// accuracy on the original data.
package data

import (
	"fmt"

	"bpar/internal/core"
	"bpar/internal/obs"
	"bpar/internal/rng"
	"bpar/internal/tensor"
)

// NumDigits is the TIDIGITS vocabulary: "oh", "zero", and "one" … "nine".
const NumDigits = 11

// anchorsPerDigit is the length of each digit's feature-space trajectory.
const anchorsPerDigit = 4

// SpeechCorpus synthesizes digit utterances. Each digit has a fixed
// trajectory through feature space (a sequence of anchor vectors,
// interpolated over the utterance); each utterance adds a per-speaker
// offset, a speaking-rate warp, and frame noise — the variability that
// makes the task non-trivial while keeping classes separable.
type SpeechCorpus struct {
	InputSize int
	Classes   int

	templates [][][]float64 // [digit][anchor][feature]
	r         *rng.RNG
}

// NewSpeechCorpus builds a corpus with the given feature width.
func NewSpeechCorpus(inputSize int, seed uint64) *SpeechCorpus {
	if inputSize <= 0 {
		panic(fmt.Sprintf("data: inputSize %d", inputSize))
	}
	c := &SpeechCorpus{
		InputSize: inputSize,
		Classes:   NumDigits,
		r:         rng.New(seed),
	}
	tr := rng.New(seed ^ 0x5eedf00d)
	c.templates = make([][][]float64, c.Classes)
	for d := range c.templates {
		c.templates[d] = make([][]float64, anchorsPerDigit)
		for a := range c.templates[d] {
			v := make([]float64, inputSize)
			tr.FillNormal(v, 0, 1)
			c.templates[d][a] = v
		}
	}
	obs.Logger("data").Debug("speech corpus built", "input_size", inputSize, "classes", c.Classes, "seed", seed)
	return c
}

// Utterance renders one utterance of the given digit into frames rows of a
// T x InputSize matrix region, applying a speaker offset and noise drawn
// from the corpus stream. rate warps the trajectory (1.0 = nominal).
func (c *SpeechCorpus) fillUtterance(dst *tensor.Matrix, row0 int, frames int, digit int, rate float64) {
	offset := make([]float64, c.InputSize)
	c.r.FillNormal(offset, 0, 0.15)
	anchors := c.templates[digit]
	span := float64(anchorsPerDigit - 1)
	for f := 0; f < frames; f++ {
		pos := float64(f) / float64(max(frames-1, 1)) * span * rate
		if pos > span {
			pos = span
		}
		lo := int(pos)
		if lo >= anchorsPerDigit-1 {
			lo = anchorsPerDigit - 2
		}
		frac := pos - float64(lo)
		dstRow := dst.Row(row0 + f)
		a, b := anchors[lo], anchors[lo+1]
		for j := 0; j < c.InputSize; j++ {
			dstRow[j] = a[j]*(1-frac) + b[j]*frac + offset[j] + 0.1*c.r.NormFloat64()
		}
	}
}

// Batch produces a many-to-one batch of `batch` utterances, each padded or
// warped to exactly seqLen frames, with the digit class as target.
// Utterance lengths vary (speaking rate), exercising the padding path.
func (c *SpeechCorpus) Batch(batch, seqLen int) *core.Batch {
	if batch <= 0 || seqLen <= 0 {
		panic(fmt.Sprintf("data: Batch(%d, %d)", batch, seqLen))
	}
	// X is stored timestep-major: X[t] is [batch x InputSize]. Render each
	// utterance into a temporary [seqLen x InputSize] then scatter.
	b := &core.Batch{
		X:       make([]*tensor.Matrix, seqLen),
		Targets: make([]int, batch),
	}
	for t := range b.X {
		b.X[t] = tensor.New(batch, c.InputSize)
	}
	utt := tensor.New(seqLen, c.InputSize)
	for i := 0; i < batch; i++ {
		digit := c.r.Intn(c.Classes)
		b.Targets[i] = digit
		rate := 0.8 + 0.4*c.r.Float64()
		frames := seqLen - c.r.Intn(seqLen/4+1) // up to 25% shorter
		if frames < 2 {
			frames = 2
		}
		utt.Zero()
		c.fillUtterance(utt, 0, frames, digit, rate)
		for t := 0; t < seqLen; t++ {
			copy(b.X[t].Row(i), utt.Row(t))
		}
	}
	return b
}

// Fork returns a corpus sharing this corpus's digit templates (the same
// "language") but drawing utterances from an independent stream — the way
// to build held-out evaluation sets.
func (c *SpeechCorpus) Fork(seed uint64) *SpeechCorpus {
	return &SpeechCorpus{
		InputSize: c.InputSize,
		Classes:   c.Classes,
		templates: c.templates,
		r:         rng.New(seed ^ 0xf0a3c0de),
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
