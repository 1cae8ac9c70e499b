package data

import (
	"fmt"
	"strings"

	"bpar/internal/core"
	"bpar/internal/obs"
	"bpar/internal/rng"
	"bpar/internal/tensor"
)

// TextCorpus is the synthetic Wikipedia substitute: a character stream drawn
// from a seeded first-order Markov chain whose transition structure gives
// the text predictable statistics (so next-character prediction is
// learnable) without shipping any real corpus.
type TextCorpus struct {
	// Vocab is the character vocabulary size (the model's input width and
	// class count).
	Vocab int
	text  []byte
	r     *rng.RNG
}

// NewTextCorpus generates `length` characters over a vocabulary of `vocab`
// symbols. Each symbol's transition distribution concentrates on a few
// successors, mimicking natural-text bigram statistics.
func NewTextCorpus(vocab, length int, seed uint64) *TextCorpus {
	if vocab < 2 || vocab > 256 {
		panic(fmt.Sprintf("data: vocab %d out of [2,256]", vocab))
	}
	if length < 2 {
		panic(fmt.Sprintf("data: length %d", length))
	}
	c := &TextCorpus{Vocab: vocab, r: rng.New(seed)}
	gen := rng.New(seed ^ 0x7e57ab1e)
	// Build a transition table: each symbol strongly prefers 3 successors.
	succ := make([][3]byte, vocab)
	for s := range succ {
		for k := 0; k < 3; k++ {
			succ[s][k] = byte(gen.Intn(vocab))
		}
	}
	c.text = make([]byte, length)
	cur := byte(gen.Intn(vocab))
	for i := range c.text {
		c.text[i] = cur
		roll := gen.Float64()
		switch {
		case roll < 0.45:
			cur = succ[cur][0]
		case roll < 0.75:
			cur = succ[cur][1]
		case roll < 0.90:
			cur = succ[cur][2]
		default:
			cur = byte(gen.Intn(vocab))
		}
	}
	obs.Logger("data").Debug("text corpus built", "vocab", vocab, "length", length, "seed", seed)
	return c
}

// At returns the symbol at position i.
func (c *TextCorpus) At(i int) byte { return c.text[i] }

// Batch samples `batch` random windows of seqLen+1 characters and encodes
// them for many-to-many next-character prediction: X[t] is the one-hot of
// character t, StepTargets[t] is character t+1.
func (c *TextCorpus) Batch(batch, seqLen int) *core.Batch {
	if batch <= 0 || seqLen <= 0 {
		panic(fmt.Sprintf("data: Batch(%d, %d)", batch, seqLen))
	}
	if seqLen+1 > len(c.text) {
		panic(fmt.Sprintf("data: seqLen %d exceeds corpus %d", seqLen, len(c.text)))
	}
	b := &core.Batch{
		X:           make([]*tensor.Matrix, seqLen),
		StepTargets: make([][]int, seqLen),
	}
	for t := range b.X {
		b.X[t] = tensor.New(batch, c.Vocab)
		b.StepTargets[t] = make([]int, batch)
	}
	for i := 0; i < batch; i++ {
		start := c.r.Intn(len(c.text) - seqLen - 1)
		for t := 0; t < seqLen; t++ {
			ch := c.text[start+t]
			b.X[t].Set(i, int(ch), 1)
			b.StepTargets[t][i] = int(c.text[start+t+1])
		}
	}
	return b
}

// Preview renders the first n characters using a printable alphabet, for
// demos and documentation.
func (c *TextCorpus) Preview(n int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ._-etaoinshrdluETAOINSHRDLU:;!?'()[]{}@#$%^&*+=<>/\\|~`\""
	if n > len(c.text) {
		n = len(c.text)
	}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(alphabet[int(c.text[i])%len(alphabet)])
	}
	return sb.String()
}
