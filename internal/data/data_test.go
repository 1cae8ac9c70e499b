package data

import (
	"math"
	"testing"

	"bpar/internal/core"
	"bpar/internal/taskrt"
)

func TestSpeechBatchShapes(t *testing.T) {
	c := NewSpeechCorpus(13, 1)
	b := c.Batch(4, 20)
	if len(b.X) != 20 {
		t.Fatalf("timesteps %d", len(b.X))
	}
	for t0, x := range b.X {
		if x.Rows != 4 || x.Cols != 13 {
			t.Fatalf("X[%d] shape %dx%d", t0, x.Rows, x.Cols)
		}
	}
	if len(b.Targets) != 4 {
		t.Fatalf("targets %d", len(b.Targets))
	}
	for _, tgt := range b.Targets {
		if tgt < 0 || tgt >= NumDigits {
			t.Fatalf("target %d", tgt)
		}
	}
}

func TestSpeechDeterministicPerSeed(t *testing.T) {
	a := NewSpeechCorpus(8, 7).Batch(3, 10)
	b := NewSpeechCorpus(8, 7).Batch(3, 10)
	for t0 := range a.X {
		if !a.X[t0].Equal(b.X[t0]) {
			t.Fatal("same seed must give same batch")
		}
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			t.Fatal("targets differ")
		}
	}
	c := NewSpeechCorpus(8, 8).Batch(3, 10)
	same := true
	for t0 := range a.X {
		if !a.X[t0].Equal(c.X[t0]) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical batches")
	}
}

// TestSpeechClassesSeparable: a nearest-centroid classifier on mean frames
// beats chance by a wide margin, so the corpus is learnable.
func TestSpeechClassesSeparable(t *testing.T) {
	c := NewSpeechCorpus(16, 3)
	// Mean frame of utterance i.
	meanFrame := func(b *core.Batch, i int) []float64 {
		mean := make([]float64, 16)
		for t0 := range b.X {
			for j, v := range b.X[t0].Row(i) {
				mean[j] += v / float64(len(b.X))
			}
		}
		return mean
	}
	// Class centroids from a separate draw of utterances.
	train := c.Batch(200, 12)
	cents := make([][]float64, NumDigits)
	counts := make([]int, NumDigits)
	for d := range cents {
		cents[d] = make([]float64, 16)
	}
	for i, d := range train.Targets {
		counts[d]++
		for j, v := range meanFrame(train, i) {
			cents[d][j] += v
		}
	}
	for d := range cents {
		for j := range cents[d] {
			cents[d][j] /= float64(max(counts[d], 1))
		}
	}
	b := c.Batch(100, 12)
	correct := 0
	for i := 0; i < 100; i++ {
		mean := meanFrame(b, i)
		best, bestD := -1, math.Inf(1)
		for d, cent := range cents {
			dist := 0.0
			for j := range mean {
				diff := mean[j] - cent[j]
				dist += diff * diff
			}
			if dist < bestD {
				best, bestD = d, dist
			}
		}
		if best == b.Targets[i] {
			correct++
		}
	}
	// Chance is ~9%. Require far better.
	if correct < 60 {
		t.Fatalf("nearest-centroid accuracy %d%%: classes not separable", correct)
	}
}

func TestSpeechVariableLengthPadding(t *testing.T) {
	c := NewSpeechCorpus(4, 5)
	b := c.Batch(50, 16)
	// Some utterances must end before seqLen (zero-padded tail frames).
	padded := 0
	for i := 0; i < 50; i++ {
		lastRow := b.X[15].Row(i)
		allZero := true
		for _, v := range lastRow {
			if v != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			padded++
		}
	}
	if padded == 0 {
		t.Fatal("expected some padded utterances")
	}
	if padded == 50 {
		t.Fatal("expected some full-length utterances")
	}
}

func TestSpeechPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSpeechCorpus(0, 1)
}

func TestTextCorpusBasics(t *testing.T) {
	c := NewTextCorpus(32, 10000, 1)
	if len(c.text) != 10000 {
		t.Fatalf("len %d", len(c.text))
	}
	for i := range c.text {
		if int(c.At(i)) >= 32 {
			t.Fatalf("symbol %d out of vocab", c.At(i))
		}
	}
	if len(c.Preview(50)) != 50 {
		t.Fatal("preview length")
	}
}

func TestTextBatchEncoding(t *testing.T) {
	c := NewTextCorpus(16, 5000, 2)
	b := c.Batch(6, 12)
	if len(b.X) != 12 || len(b.StepTargets) != 12 {
		t.Fatal("shape")
	}
	for t0 := 0; t0 < 12; t0++ {
		if b.X[t0].Rows != 6 || b.X[t0].Cols != 16 {
			t.Fatal("X shape")
		}
		for i := 0; i < 6; i++ {
			// Exactly one hot per row.
			row := b.X[t0].Row(i)
			ones, hot := 0, -1
			for j, v := range row {
				if v == 1 {
					ones++
					hot = j
				} else if v != 0 {
					t.Fatalf("non-binary value %g", v)
				}
			}
			if ones != 1 {
				t.Fatalf("row has %d hots", ones)
			}
			// Target of t is the hot symbol of t+1 within the same window.
			if t0+1 < 12 {
				nextRow := b.X[t0+1].Row(i)
				if nextRow[b.StepTargets[t0][i]] != 1 {
					t.Fatal("target does not match next input")
				}
			}
			if hot < 0 || b.StepTargets[t0][i] >= 16 {
				t.Fatal("bad indices")
			}
		}
	}
}

// TestTextChainIsPredictable: the dominant successor of a frequent symbol
// accounts for a large share of its bigrams, so next-char prediction has
// learnable structure.
func TestTextChainIsPredictable(t *testing.T) {
	c := NewTextCorpus(24, 50000, 3)
	// Find the most frequent symbol.
	freq := make([]int, 24)
	for _, s := range c.text {
		freq[s]++
	}
	best := 0
	for s, f := range freq {
		if f > freq[best] {
			best = s
		}
	}
	counts := map[byte]int{} // successors of best
	for i := 0; i+1 < len(c.text); i++ {
		if c.text[i] == byte(best) {
			counts[c.text[i+1]]++
		}
	}
	total, maxC := 0, 0
	for _, n := range counts {
		total += n
		if n > maxC {
			maxC = n
		}
	}
	if total == 0 {
		t.Fatal("no bigrams")
	}
	if float64(maxC)/float64(total) < 0.3 {
		t.Fatalf("dominant successor share %.2f too low", float64(maxC)/float64(total))
	}
}

func TestTextDeterminism(t *testing.T) {
	a := NewTextCorpus(16, 1000, 9)
	b := NewTextCorpus(16, 1000, 9)
	for i := 0; i < 1000; i++ {
		if a.At(i) != b.At(i) {
			t.Fatal("same seed must give same text")
		}
	}
}

func TestTextPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewTextCorpus(1, 100, 1) },
		func() { NewTextCorpus(300, 100, 1) },
		func() { NewTextCorpus(16, 1, 1) },
		func() { NewTextCorpus(16, 100, 1).Batch(0, 5) },
		func() { NewTextCorpus(16, 100, 1).Batch(2, 500) },
		func() { NewSpeechCorpus(4, 1).Batch(0, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestCorporaTrainEndToEnd: both corpora drive a real model to a loss well
// below the untrained baseline — the accuracy smoke test of the pipeline.
func TestCorporaTrainEndToEnd(t *testing.T) {
	// Speech, many-to-one.
	sc := NewSpeechCorpus(8, 11)
	cfgS := core.Config{
		Cell: core.LSTM, Arch: core.ManyToOne, Merge: core.MergeSum,
		InputSize: 8, HiddenSize: 12, Layers: 1, SeqLen: 8,
		Batch: 16, Classes: NumDigits, MiniBatches: 2, Seed: 1,
	}
	mS, err := core.NewModel(cfgS)
	if err != nil {
		t.Fatal(err)
	}
	rt := taskrt.New(taskrt.Options{Workers: 4})
	defer rt.Shutdown()
	eS := core.NewEngine(mS, rt)
	bS := sc.Batch(16, 8)
	first, err := eS.TrainStep(bS, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 80; i++ {
		if last, err = eS.TrainStep(bS, 0.2); err != nil {
			t.Fatal(err)
		}
	}
	if last >= first*0.8 {
		t.Fatalf("speech loss did not fall: %g -> %g", first, last)
	}

	// Text, many-to-many.
	tc := NewTextCorpus(12, 20000, 13)
	cfgT := core.Config{
		Cell: core.GRU, Arch: core.ManyToMany, Merge: core.MergeSum,
		InputSize: 12, HiddenSize: 16, Layers: 1, SeqLen: 6,
		Batch: 16, Classes: 12, MiniBatches: 1, Seed: 2,
	}
	mT, err := core.NewModel(cfgT)
	if err != nil {
		t.Fatal(err)
	}
	eT := core.NewEngine(mT, rt)
	bT := tc.Batch(16, 6)
	firstT, err := eT.TrainStep(bT, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	var lastT float64
	for i := 0; i < 80; i++ {
		if lastT, err = eT.TrainStep(bT, 0.3); err != nil {
			t.Fatal(err)
		}
	}
	if lastT >= firstT*0.9 {
		t.Fatalf("text loss did not fall: %g -> %g", firstT, lastT)
	}
}

func TestSpeechForkSharesTemplates(t *testing.T) {
	c := NewSpeechCorpus(8, 42)
	f := c.Fork(7)
	// Same language: the anchor templates are shared, not redrawn.
	if &f.templates[0][0][0] != &c.templates[0][0][0] {
		t.Fatal("Fork must share templates")
	}
	// Different utterance streams.
	ba, bb := c.Batch(4, 8), f.Batch(4, 8)
	same := true
	for t0 := range ba.X {
		if !ba.X[t0].Equal(bb.X[t0]) {
			same = false
		}
	}
	if same {
		t.Fatal("Fork must draw independent utterances")
	}
}

func TestBucketerRounding(t *testing.T) {
	bk, err := NewBucketer([]int{4, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ n, want int }{
		{1, 4}, {4, 4}, {5, 8}, {8, 8}, {9, 16}, {16, 16}, {99, 16},
	} {
		if got := bk.Round(tc.n); got != tc.want {
			t.Fatalf("Round(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	if bk.Max() != 16 {
		t.Fatalf("Max %d", bk.Max())
	}
	for _, bad := range [][]int{nil, {}, {0, 4}, {-2}, {4, 4}, {8, 4}} {
		if _, err := NewBucketer(bad); err == nil {
			t.Fatalf("NewBucketer(%v) should fail", bad)
		}
	}
}

func TestTagCorpusLabels(t *testing.T) {
	c := NewTagCorpus(5, 3, 9, 1)
	syms := []int{2, 4, 1, 3}
	// Boundaries read missing neighbours as 0.
	wants := []int{4 % 5, (2 + 1) % 5, (4 + 3) % 5, 1 % 5}
	for i, want := range wants {
		if got := c.TagAt(syms, i); got != want {
			t.Fatalf("TagAt(%d) = %d, want %d", i, got, want)
		}
	}
	if got := c.Dominant([]int{1, 3, 3, 1, 2}); got != 1 {
		t.Fatalf("Dominant tie should pick smallest, got %d", got)
	}
	if got := c.Dominant([]int{4, 4, 0}); got != 4 {
		t.Fatalf("Dominant = %d, want 4", got)
	}
}

func TestTagBatchShapesAndMasking(t *testing.T) {
	// One bucket: every row is truncated or padded to 8 steps.
	bk, err := NewBucketer([]int{8})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBucketBatcher(NewTagCorpus(6, 3, 10, 7), bk, 20).Next()
	if len(b.X) != 8 || len(b.StepTargets) != 8 || len(b.Targets) != 20 {
		t.Fatal("shape")
	}
	sawShort := false
	for i := 0; i < 20; i++ {
		n := 8
		if b.Lens != nil {
			n = b.Lens[i]
		}
		if n < 1 || n > 8 {
			t.Fatalf("row %d length %d", i, n)
		}
		if n < 8 {
			sawShort = true
		}
		for t0 := 0; t0 < 8; t0++ {
			row := b.X[t0].Row(i)
			ones := 0
			for _, v := range row {
				if v == 1 {
					ones++
				} else if v != 0 {
					t.Fatalf("non-binary input %g", v)
				}
			}
			if t0 < n {
				if ones != 1 {
					t.Fatalf("row %d t%d has %d hots", i, t0, ones)
				}
				if tag := b.StepTargets[t0][i]; tag < 0 || tag >= 6 {
					t.Fatalf("tag %d out of range", tag)
				}
			} else {
				if ones != 0 {
					t.Fatalf("padded frame %d t%d has input", i, t0)
				}
				if b.StepTargets[t0][i] != -1 {
					t.Fatalf("padded frame %d t%d label %d, want IgnoreLabel", i, t0, b.StepTargets[t0][i])
				}
			}
		}
	}
	if !sawShort {
		t.Fatal("expected some rows shorter than seqLen")
	}
	// Determinism per seed.
	b2 := NewBucketBatcher(NewTagCorpus(6, 3, 10, 7), bk, 20).Next()
	for t0 := range b.X {
		if !b.X[t0].Equal(b2.X[t0]) {
			t.Fatal("same seed must give same batch")
		}
	}
}

func TestBucketBatcherEmitsUniformBuckets(t *testing.T) {
	c := NewTagCorpus(4, 3, 16, 5)
	bk, err := NewBucketer([]int{4, 8, 12})
	if err != nil {
		t.Fatal(err)
	}
	bb := NewBucketBatcher(c, bk, 6)
	seen := map[int]bool{}
	for n := 0; n < 12; n++ {
		b := bb.Next()
		T := b.SeqLen()
		if bk.Round(T) != T {
			t.Fatalf("batch T=%d is not a bucket boundary", T)
		}
		seen[T] = true
		for i := 0; i < 6; i++ {
			n := T
			if b.Lens != nil {
				n = b.Lens[i]
			}
			if n > T || bk.Round(n) != T {
				t.Fatalf("row length %d in bucket %d", n, T)
			}
		}
	}
	if len(seen) < 2 {
		t.Fatalf("expected multiple buckets, saw %v", seen)
	}
}

// TestTagCorpusLearnable: the tagging task is fit by a small BRNN — per-frame
// loss falls well below its starting point, proving the labels carry
// learnable bidirectional structure.
func TestTagCorpusLearnable(t *testing.T) {
	bk, err := NewBucketer([]int{6})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBucketBatcher(NewTagCorpus(4, 6, 6, 3), bk, 16).Next()
	cfg := core.Config{
		Cell: core.GRU, Arch: core.ManyToMany, Merge: core.MergeConcat,
		InputSize: 4, HiddenSize: 16, Layers: 1, SeqLen: 6,
		Batch: 16, Classes: 4, MiniBatches: 1, Seed: 4,
	}
	m, err := core.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(m, taskrt.NewInline(nil))
	e.Adam = true
	first, err := e.TrainStep(b, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 150; i++ {
		if last, err = e.TrainStep(b, 0.02); err != nil {
			t.Fatal(err)
		}
	}
	if last >= first*0.5 {
		t.Fatalf("tag loss did not fall: %g -> %g", first, last)
	}
}
