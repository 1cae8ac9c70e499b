package data

import (
	"fmt"

	"bpar/internal/core"
	"bpar/internal/obs"
	"bpar/internal/rng"
	"bpar/internal/tensor"
)

// TagCorpus synthesizes a variable-length sequence-tagging workload for the
// multi-head models: sequences of one-hot symbols whose per-frame tag is a
// function of BOTH neighbours, so only a bidirectional network can fit it.
// Each batch it assembles carries every label kind at once —
//
//   - StepTargets[t][i] = (sym[t-1] + sym[t+1]) mod Vocab (boundary
//     neighbours read as 0), the tagging head's labels; frames at or beyond
//     a row's length are tensor.IgnoreLabel,
//   - Targets[i] = the row's dominant (most frequent, ties to smallest)
//     symbol, the classification head's labels,
//   - Lens[i] = the row's true length (a generate head derives its shifted
//     next-tag stream from StepTargets inside the engine),
//
// so one corpus exercises classify, tag, and generate heads plus the masked
// variable-length batch path. Deterministic given the seed.
type TagCorpus struct {
	Vocab  int // symbol alphabet; also InputSize (one-hot) and tag classes
	MinLen int
	MaxLen int

	r *rng.RNG
}

// NewTagCorpus builds a corpus over the given alphabet with sequence
// lengths drawn uniformly from [minLen, maxLen].
func NewTagCorpus(vocab, minLen, maxLen int, seed uint64) *TagCorpus {
	if vocab < 2 {
		panic(fmt.Sprintf("data: tag vocab %d, want >= 2", vocab))
	}
	if minLen < 2 || maxLen < minLen {
		panic(fmt.Sprintf("data: tag length range [%d, %d]", minLen, maxLen))
	}
	c := &TagCorpus{Vocab: vocab, MinLen: minLen, MaxLen: maxLen, r: rng.New(seed)}
	obs.Logger("data").Debug("tag corpus built", "vocab", vocab, "min_len", minLen, "max_len", maxLen, "seed", seed)
	return c
}

// Sample draws one symbol sequence of random length in [MinLen, MaxLen].
func (c *TagCorpus) Sample() []int {
	n := c.MinLen + c.r.Intn(c.MaxLen-c.MinLen+1)
	syms := make([]int, n)
	for t := range syms {
		syms[t] = c.r.Intn(c.Vocab)
	}
	return syms
}

// TagAt returns the tag for position t of syms: the sum of the two
// neighbouring symbols mod Vocab, with out-of-range neighbours read as 0.
func (c *TagCorpus) TagAt(syms []int, t int) int {
	left, right := 0, 0
	if t > 0 {
		left = syms[t-1]
	}
	if t < len(syms)-1 {
		right = syms[t+1]
	}
	return (left + right) % c.Vocab
}

// Dominant returns the most frequent symbol of the sequence, ties going to
// the smallest symbol.
func (c *TagCorpus) Dominant(syms []int) int {
	counts := make([]int, c.Vocab)
	for _, s := range syms {
		counts[s]++
	}
	best := 0
	for s := 1; s < c.Vocab; s++ {
		if counts[s] > counts[best] {
			best = s
		}
	}
	return best
}

// assemble packs symbol sequences (each of length <= T) into a batch with
// one-hot inputs, per-frame tags, dominant-symbol targets, and Lens. When
// every row spans exactly T, Lens is left nil so the engine takes the exact
// legacy full-length path.
func (c *TagCorpus) assemble(rows [][]int, T int) *core.Batch {
	batch := len(rows)
	b := &core.Batch{
		X:           make([]*tensor.Matrix, T),
		Targets:     make([]int, batch),
		StepTargets: make([][]int, T),
		Lens:        make([]int, batch),
	}
	for t := range b.X {
		b.X[t] = tensor.New(batch, c.Vocab)
		b.StepTargets[t] = make([]int, batch)
	}
	allFull := true
	for i, syms := range rows {
		if len(syms) > T {
			panic(fmt.Sprintf("data: row %d length %d exceeds T=%d", i, len(syms), T))
		}
		b.Lens[i] = len(syms)
		if len(syms) != T {
			allFull = false
		}
		b.Targets[i] = c.Dominant(syms)
		for t := 0; t < T; t++ {
			if t < len(syms) {
				b.X[t].Row(i)[syms[t]] = 1
				b.StepTargets[t][i] = c.TagAt(syms, t)
			} else {
				b.StepTargets[t][i] = tensor.IgnoreLabel
			}
		}
	}
	if allFull {
		b.Lens = nil
	}
	return b
}
