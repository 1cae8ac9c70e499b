package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"bpar/internal/rng"
	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// multiHeadCfg is smallCfg with three heads of distinct kinds and widths
// sharing the bidirectional trunk: the shape every shared-trunk claim in
// this file is proven on.
func multiHeadCfg(cell CellKind, mbs int) Config {
	cfg := smallCfg(cell, ManyToMany, mbs)
	cfg.Heads = []HeadSpec{
		{Kind: HeadClassify, Classes: 3},
		{Kind: HeadTag, Classes: 4},
		{Kind: HeadGenerate, Classes: 5},
	}
	return cfg
}

// makeMultiBatch builds a deterministic batch carrying both label kinds the
// three heads consume; when withLens is set, rows get lengths spanning
// [SeqLen/2, SeqLen] with zeroed input tails and IgnoreLabel step targets.
func makeMultiBatch(cfg Config, seed uint64, withLens bool) *Batch {
	b := makeBatch(cfg, seed)
	r := rng.New(seed ^ 0x9e3779b97f4a7c15)
	b.Targets = make([]int, cfg.Batch)
	for i := range b.Targets {
		b.Targets[i] = r.Intn(cfg.Classes)
	}
	if !withLens {
		return b
	}
	lens := make([]int, cfg.Batch)
	lo := max(1, cfg.SeqLen/2)
	for i := range lens {
		lens[i] = lo + int(uint64(i)*(seed|1))%(cfg.SeqLen-lo+1)
	}
	return applyLens(b, lens)
}

// applyLens binds lens to b and makes every row's tail padding: zeroed input
// frames and IgnoreLabel step targets from lens[i] on.
func applyLens(b *Batch, lens []int) *Batch {
	b.Lens = lens
	for i, n := range lens {
		for t := n; t < b.SeqLen(); t++ {
			b.StepTargets[t][i] = tensor.IgnoreLabel
			clear(b.X[t].Row(i))
		}
	}
	return b
}

// trainNMulti trains a fresh multi-head model for n steps on makeMultiBatch
// batches with an explicit replay switch.
func trainNMulti(t *testing.T, cfg Config, withLens, noReplay bool, mkExec func() taskrt.Executor, n int) (*Model, float64) {
	t.Helper()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exec := mkExec()
	if rt, ok := exec.(*taskrt.Runtime); ok {
		defer rt.Shutdown()
	}
	e := NewEngine(m, exec)
	e.NoReplay = noReplay
	var loss float64
	for i := 0; i < n; i++ {
		b := makeMultiBatch(cfg, uint64(100+i), withLens)
		loss, err = e.TrainStep(b, 0.05)
		if err != nil {
			t.Fatal(err)
		}
	}
	return m, loss
}

// multiHeadExecs is the worker {1,4} × policy {breadth-first, locality-aware}
// grid the issue's equivalence claims quantify over.
var multiHeadExecs = []struct {
	name string
	mk   func() taskrt.Executor
}{
	{"w1-bf", parallelExec(1, taskrt.BreadthFirst)},
	{"w4-bf", parallelExec(4, taskrt.BreadthFirst)},
	{"w1-la", parallelExec(1, taskrt.LocalityAware)},
	{"w4-la", parallelExec(4, taskrt.LocalityAware)},
}

// TestMultiHeadParallelMatchesSequentialBitwise extends the paper's central
// no-accuracy-loss claim to shared-trunk multi-head training: the per-head
// backward tasks accumulate into the trunk's merge gradients through inout
// dependencies, so every schedule sums them in declaration order and the
// parallel update is bitwise the sequential one — with and without masked
// variable-length rows.
func TestMultiHeadParallelMatchesSequentialBitwise(t *testing.T) {
	for _, withLens := range []bool{false, true} {
		cfg := multiHeadCfg(LSTM, 2)
		name := "full"
		if withLens {
			name = "masked"
		}
		seqM, seqLoss := trainNMulti(t, cfg, withLens, false, inlineExec, 4)
		for _, ex := range multiHeadExecs {
			ex := ex
			t.Run(name+"/"+ex.name, func(t *testing.T) {
				parM, parLoss := trainNMulti(t, cfg, withLens, false, ex.mk, 4)
				if !seqM.WeightsEqual(parM) {
					t.Fatalf("weights diverged: max |diff| = %g", seqM.WeightsMaxAbsDiff(parM))
				}
				if seqLoss != parLoss {
					t.Fatalf("loss diverged: %g vs %g", seqLoss, parLoss)
				}
			})
		}
	}
}

// TestMultiHeadReplayMatchesFreshBitwise: the captured template of a
// multi-head masked step — including the new head-gradient accumulation
// joins and the lens-dependent masking tasks — replays bitwise identically
// to a fresh capture every step on every worker count and policy.
func TestMultiHeadReplayMatchesFreshBitwise(t *testing.T) {
	for _, cell := range []CellKind{LSTM, GRU} {
		for _, withLens := range []bool{false, true} {
			cfg := multiHeadCfg(cell, 2)
			name := fmt.Sprintf("%v-full", cell)
			if withLens {
				name = fmt.Sprintf("%v-masked", cell)
			}
			for _, ex := range multiHeadExecs {
				ex := ex
				t.Run(name+"/"+ex.name, func(t *testing.T) {
					freshM, freshLoss := trainNMulti(t, cfg, withLens, true, ex.mk, 4)
					replayM, replayLoss := trainNMulti(t, cfg, withLens, false, ex.mk, 4)
					if !freshM.WeightsEqual(replayM) {
						t.Fatalf("replay diverged from fresh emission: max |diff| = %g",
							freshM.WeightsMaxAbsDiff(replayM))
					}
					if freshLoss != replayLoss {
						t.Fatalf("loss diverged: fresh %g vs replay %g", freshLoss, replayLoss)
					}
				})
			}
		}
	}
}

// TestMultiHeadDepCheckClean runs shared-trunk masked training and inference
// under the runtime dependency sanitizer: every tensor the head and masking
// tasks touch must be declared, or the step fails loudly. Both engines infer
// before their first training step, so the sanitizer also sees every buffer
// of a training half built after inference registered.
func TestMultiHeadDepCheckClean(t *testing.T) {
	for _, cell := range []CellKind{LSTM, GRU} {
		t.Run(cell.String(), func(t *testing.T) {
			cfg := multiHeadCfg(cell, 2)
			m, err := NewModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rt := taskrt.New(taskrt.Options{Workers: 3, DepCheck: true})
			defer rt.Shutdown()
			defer tensor.SetAccessHook(nil)
			eng := NewEngine(m, rt)
			if _, _, err := eng.Infer(makeMultiBatch(cfg, 54, true)); err != nil {
				t.Fatalf("infer before training: %v", err)
			}
			for i := 0; i < 3; i++ {
				if _, err := eng.TrainStep(makeMultiBatch(cfg, uint64(100+i), true), 0.05); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			if _, _, err := eng.Infer(makeMultiBatch(cfg, 55, true)); err != nil {
				t.Fatalf("infer: %v", err)
			}
			// Every row ends at least two timesteps before T, at both
			// inference dtypes, replayed twice in a row.
			short := applyLens(makeMultiBatch(cfg, 56, false), []int{2, 3, 1, 3, 2, 1})
			f32 := NewEngine(m, rt)
			f32.InferDType = tensor.F32
			for _, e := range []*Engine{eng, f32} {
				for i := 0; i < 2; i++ {
					if _, _, err := e.Infer(short); err != nil {
						t.Fatalf("short infer %v #%d: %v", e.InferDType, i, err)
					}
				}
				// Partial batches, replayed: Real = 2 leaves the second
				// micro-batch all padding.
				for _, real := range []int{2, 2, 5} {
					partial := makeMultiBatch(cfg, 57, true)
					partial.Real = real
					if _, _, err := e.Infer(partial); err != nil {
						t.Fatalf("partial infer %v Real=%d: %v", e.InferDType, real, err)
					}
				}
			}
			for _, e := range []*Engine{eng, f32} {
				if _, err := e.TrainStep(makeMultiBatch(cfg, 58, true), 0.05); err != nil {
					t.Fatalf("train %v after partial infer: %v", e.InferDType, err)
				}
			}
		})
	}
}

// uniformLenBatches builds the masked/per-length pair of the equivalence
// claim: the same rows once padded to cfg.SeqLen with Lens=L everywhere, and
// once as an exact-length batch of T=L.
func uniformLenBatches(cfg Config, seed uint64, L int) (masked, short *Batch) {
	masked = makeMultiBatch(cfg, seed, false)
	masked.Lens = make([]int, cfg.Batch)
	for i := range masked.Lens {
		masked.Lens[i] = L
	}
	short = &Batch{
		X:           masked.X[:L],
		Targets:     masked.Targets,
		StepTargets: masked.StepTargets[:L],
	}
	for t := L; t < cfg.SeqLen; t++ {
		for i := 0; i < cfg.Batch; i++ {
			masked.StepTargets[t][i] = tensor.IgnoreLabel
			for j := 0; j < cfg.InputSize; j++ {
				masked.X[t].Set(i, j, 0)
			}
		}
	}
	return masked, short
}

// TestMaskedMatchesPerLengthBitwise is the masking contract: a batch whose
// rows all carry length L, padded to the template length T with Lens set,
// must train bitwise identically to feeding the unpadded T=L batch — the
// padded timesteps are inert in forward, loss, and every gradient.
func TestMaskedMatchesPerLengthBitwise(t *testing.T) {
	for _, cell := range []CellKind{LSTM, GRU, RNN} {
		t.Run(cell.String(), func(t *testing.T) {
			cfg := multiHeadCfg(cell, 2)
			const L = 3
			run := func(maskedRun bool) (*Model, float64) {
				m, err := NewModel(cfg)
				if err != nil {
					t.Fatal(err)
				}
				e := NewEngine(m, taskrt.NewInline(nil))
				var loss float64
				for i := 0; i < 3; i++ {
					masked, short := uniformLenBatches(cfg, uint64(200+i), L)
					b := short
					if maskedRun {
						b = masked
					}
					loss, err = e.TrainStep(b, 0.05)
					if err != nil {
						t.Fatal(err)
					}
				}
				return m, loss
			}
			maskedM, maskedLoss := run(true)
			shortM, shortLoss := run(false)
			if !maskedM.WeightsEqual(shortM) {
				t.Fatalf("masked training diverged from per-length run: max |diff| = %g",
					maskedM.WeightsMaxAbsDiff(shortM))
			}
			if maskedLoss != shortLoss {
				t.Fatalf("loss diverged: masked %g vs per-length %g", maskedLoss, shortLoss)
			}
		})
	}
}

// TestMaskedInferMatchesPerLengthRows checks mixed lengths in one batch: each
// row of a masked InferProbs equals the same row inferred in an exact-length
// batch of its own length, for every head slot the row is live in.
func TestMaskedInferMatchesPerLengthRows(t *testing.T) {
	cfg := multiHeadCfg(LSTM, 1)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const L = 3 // rows [0,3) get length L, rows [3,Batch) stay full
	b := makeMultiBatch(cfg, 7, false)
	b.Lens = make([]int, cfg.Batch)
	for i := range b.Lens {
		if i < 3 {
			b.Lens[i] = L
			for t := L; t < cfg.SeqLen; t++ {
				b.StepTargets[t][i] = tensor.IgnoreLabel
				for j := 0; j < cfg.InputSize; j++ {
					b.X[t].Set(i, j, 0)
				}
			}
		} else {
			b.Lens[i] = cfg.SeqLen
		}
	}
	eng := NewEngine(m, taskrt.NewInline(nil))
	probs, _, err := eng.InferProbs(b)
	if err != nil {
		t.Fatal(err)
	}

	// Exact-length batch: the same rows truncated to T=L (the engine wants
	// the configured row count; inference is row-independent, so only the
	// rows that really have length L are compared below).
	shortX := make([]*tensor.Matrix, L)
	for t := range shortX {
		shortX[t] = b.X[t]
	}
	shortProbs, _, err := eng.InferProbs(&Batch{X: shortX})
	if err != nil {
		t.Fatal(err)
	}

	for h, spec := range cfg.HeadSpecs() {
		lo, _ := cfg.HeadSlotRange(h, cfg.SeqLen)
		shortLo, _ := cfg.HeadSlotRange(h, L)
		slots := 1
		if spec.Kind.PerFrame() {
			slots = L
		}
		for s := 0; s < slots; s++ {
			got, want := probs[lo+s], shortProbs[shortLo+s]
			for i := 0; i < 3; i++ {
				for j := 0; j < spec.Classes; j++ {
					if got.At(i, j) != want.At(i, j) {
						t.Fatalf("head %d slot %d row %d col %d: masked %g vs per-length %g",
							h, s, i, j, got.At(i, j), want.At(i, j))
					}
				}
			}
		}
	}
}

// TestInferShortAfterLong: one engine infers a full-length batch, then a
// masked batch whose rows all end at least two timesteps before T. Every
// row's live slots — probabilities and labelled per-slot losses — must equal,
// bitwise, a fresh engine's run of that row at its own length, so nothing the
// long batch left behind (reverse-chain boundary states, preload tiles, head
// slots) may leak into the short one.
func TestInferShortAfterLong(t *testing.T) {
	// T = 11 spans preload tiles [0,8) and [8,11). With MiniBatches 2 the
	// micro-batches' longest rows are 9 and 7.
	lens := []int{3, 9, 1, 5, 2, 7}
	const T = 11
	for _, cell := range []CellKind{LSTM, GRU, RNN} {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			for _, mbs := range []int{1, 2} {
				for _, noReplay := range []bool{false, true} {
					t.Run(fmt.Sprintf("%v/%v/mbs%d/noReplay=%v", cell, dt, mbs, noReplay), func(t *testing.T) {
						cfg := multiHeadCfg(cell, mbs)
						cfg.SeqLen = T
						m, err := NewModel(cfg)
						if err != nil {
							t.Fatal(err)
						}
						newEng := func() *Engine {
							e := NewEngine(m, taskrt.NewInline(nil))
							e.InferDType, e.NoReplay = dt, noReplay
							return e
						}
						// infer returns the step's probabilities and its
						// per-slot summed losses; with one labelled row, the
						// other micro-batch adds exact zeros.
						infer := func(e *Engine, b *Batch) ([]*tensor.Matrix, []float64) {
							t.Helper()
							probs, _, err := e.InferProbs(b)
							if err != nil {
								t.Fatal(err)
							}
							losses := make([]float64, len(probs))
							for _, ws := range e.wsByT[b.SeqLen()] {
								for s, l := range ws.losses {
									losses[s] += l
								}
							}
							return probs, losses
						}
						eng := newEng()
						for i, n := range lens {
							infer(eng, makeMultiBatch(cfg, 1, false))
							short := labelOnlyRow(applyLens(makeMultiBatch(cfg, 2, false), lens), i)
							probs, losses := infer(eng, short)
							own := &Batch{X: short.X[:n], Targets: short.Targets, StepTargets: short.StepTargets[:n]}
							wantProbs, wantLosses := infer(newEng(), own)

							for h, spec := range cfg.HeadSpecs() {
								lo, _ := cfg.HeadSlotRange(h, T)
								ownLo, _ := cfg.HeadSlotRange(h, n)
								slots := 1
								if spec.Kind.PerFrame() {
									slots = T
								}
								for s := 0; s < slots; s++ {
									if s >= n {
										// A padded frame carries only IgnoreLabel.
										if losses[lo+s] != 0 {
											t.Fatalf("row %d head %d slot %d: padded loss %g, want 0", i, h, s, losses[lo+s])
										}
										// Past the longest row nothing is computed.
										if s >= slices.Max(lens) && slices.ContainsFunc(probs[lo+s].Data, func(p float64) bool { return p != 0 }) {
											t.Fatalf("head %d slot %d ≥ max(Lens): probabilities %v, want 0", h, s, probs[lo+s].Data)
										}
										continue
									}
									if losses[lo+s] != wantLosses[ownLo+s] {
										t.Fatalf("row %d head %d slot %d: loss %g, own length %g", i, h, s, losses[lo+s], wantLosses[ownLo+s])
									}
									got, want := probs[lo+s].Row(i), wantProbs[ownLo+s].Row(i)
									for j := range want {
										if got[j] != want[j] {
											t.Fatalf("row %d head %d slot %d class %d: %g, own length %g", i, h, s, j, got[j], want[j])
										}
									}
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestInferPartialBatch: one engine infers a full batch, then partial
// batches (Real = 1, Batch−1, and 3, which with MiniBatches 2 leaves the
// second micro-batch all padding), the full batch again, and finally trains
// one step. Every real row's live slots must equal a fresh engine's
// full-batch run of the same rows, bitwise, whatever the padding rows hold;
// and the training step's loss and weights, and the inference after it, must
// equal a fresh train-first engine's, so neither a buffer a partial step
// reshaped and left unrestored nor a training half built after inference
// can go unnoticed.
func TestInferPartialBatch(t *testing.T) {
	for _, cell := range []CellKind{LSTM, GRU, RNN} {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			for _, mbs := range []int{1, 2} {
				for _, noReplay := range []bool{false, true} {
					for _, masked := range []bool{false, true} {
						t.Run(fmt.Sprintf("%v/%v/mbs%d/noReplay=%v/masked=%v", cell, dt, mbs, noReplay, masked), func(t *testing.T) {
							cfg := multiHeadCfg(cell, mbs)
							newEng := func() *Engine {
								m, err := NewModel(cfg)
								if err != nil {
									t.Fatal(err)
								}
								e := NewEngine(m, taskrt.NewInline(nil))
								e.InferDType, e.NoReplay = dt, noReplay
								return e
							}
							infer := func(e *Engine, b *Batch) []*tensor.Matrix {
								t.Helper()
								probs, _, err := e.InferProbs(b)
								if err != nil {
									t.Fatal(err)
								}
								return probs
							}
							full := makeMultiBatch(cfg, 1, masked)
							want := infer(newEng(), full)
							eng := newEng()
							checkRealRows(t, "full", cfg, infer(eng, full), want, full.Lens, cfg.Batch)
							for _, real := range []int{1, cfg.Batch - 1, 3} {
								b := padRows(full, makeMultiBatch(cfg, 99, false), real)
								checkRealRows(t, fmt.Sprintf("Real=%d", real), cfg, infer(eng, b), want, full.Lens, real)
							}
							checkRealRows(t, "full again", cfg, infer(eng, full), want, full.Lens, cfg.Batch)

							train := makeMultiBatch(cfg, 7, masked)
							fresh := newEng()
							gotLoss, err := eng.TrainStep(train, 0.05)
							if err != nil {
								t.Fatal(err)
							}
							wantLoss, err := fresh.TrainStep(train, 0.05)
							if err != nil {
								t.Fatal(err)
							}
							if gotLoss != wantLoss {
								t.Fatalf("training after partial inference: loss %g, fresh engine %g", gotLoss, wantLoss)
							}
							if !eng.M.WeightsEqual(fresh.M) {
								t.Fatalf("training after partial inference: weights differ by %g", eng.M.WeightsMaxAbsDiff(fresh.M))
							}
							checkRealRows(t, "after training", cfg, infer(eng, full), infer(fresh, full), full.Lens, cfg.Batch)
						})
					}
				}
			}
		}
	}
}

// TestWorkingSetBytesIgnoresRealRows: the memory-study figure describes the
// workspaces' full row count, whatever the last step bound.
func TestWorkingSetBytesIgnoresRealRows(t *testing.T) {
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		cfg := multiHeadCfg(GRU, 2)
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(m, taskrt.NewInline(nil))
		e.InferDType = dt
		before := e.WorkingSetBytes(cfg.SeqLen)
		b := makeMultiBatch(cfg, 3, false)
		b.Real = 1
		if _, _, err := e.InferProbs(b); err != nil {
			t.Fatal(err)
		}
		if after := e.WorkingSetBytes(cfg.SeqLen); after != before {
			t.Fatalf("%v: WorkingSetBytes %d after a Real = 1 step, %d before", dt, after, before)
		}
	}
}

// padRows returns a copy of b with Real = real whose padding rows [real,
// Batch) hold other's inputs and labels at full length: padding that must
// not reach a real row's answer.
func padRows(b, other *Batch, real int) *Batch {
	p := &Batch{Real: real, Targets: slices.Clone(b.Targets), Lens: slices.Clone(b.Lens)}
	copy(p.Targets[real:], other.Targets[real:])
	for i := real; i < len(p.Lens); i++ {
		p.Lens[i] = b.SeqLen()
	}
	for t, x := range b.X {
		px := x.Clone()
		copy(px.Data[real*x.Cols:], other.X[t].Data[real*x.Cols:])
		p.X = append(p.X, px)
		row := slices.Clone(b.StepTargets[t])
		copy(row[real:], other.StepTargets[t][real:])
		p.StepTargets = append(p.StepTargets, row)
	}
	return p
}

// checkRealRows compares rows [0, real) of got against want, bitwise, on
// every slot each row is live in (per-frame slots past its Lens are not),
// and requires the padding rows [real, Batch) to read exactly 0.
func checkRealRows(t *testing.T, step string, cfg Config, got, want []*tensor.Matrix, lens []int, real int) {
	t.Helper()
	T := cfg.SeqLen
	for h, spec := range cfg.HeadSpecs() {
		lo, n := cfg.HeadSlotRange(h, T)
		for s := lo; s < lo+n; s++ {
			for i := 0; i < real; i++ {
				if spec.Kind.PerFrame() && lens != nil && s-lo >= lens[i] {
					continue
				}
				if g, w := got[s].Row(i), want[s].Row(i); !slices.Equal(g, w) {
					t.Fatalf("%s: head %d slot %d row %d: %v, fresh full batch %v", step, h, s-lo, i, g, w)
				}
			}
			for i := real; i < cfg.Batch; i++ {
				if g := got[s].Row(i); slices.ContainsFunc(g, func(p float64) bool { return p != 0 }) {
					t.Fatalf("%s: head %d slot %d padding row %d: %v, want 0", step, h, s-lo, i, g)
				}
			}
		}
	}
}

// TestInferPartialBatchLoss defines labelled partial-batch inference: the
// padding rows' labels are ignored and the loss is the mean over real rows,
// bitwise the loss of an engine built at Batch = Real (on the model's
// WithBatch view, with the micro-batches that hold real rows) fed the real
// rows alone.
func TestInferPartialBatchLoss(t *testing.T) {
	for _, cell := range []CellKind{LSTM, GRU, RNN} {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			for _, mbs := range []int{1, 2} {
				for _, masked := range []bool{false, true} {
					t.Run(fmt.Sprintf("%v/%v/mbs%d/masked=%v", cell, dt, mbs, masked), func(t *testing.T) {
						cfg := multiHeadCfg(cell, mbs)
						m, err := NewModel(cfg)
						if err != nil {
							t.Fatal(err)
						}
						eng := NewEngine(m, taskrt.NewInline(nil))
						eng.InferDType = dt
						full := makeMultiBatch(cfg, 1, masked)
						for _, real := range []int{1, cfg.Batch - 1, 3} {
							_, got, err := eng.InferProbs(padRows(full, makeMultiBatch(cfg, 99, false), real))
							if err != nil {
								t.Fatal(err)
							}
							k := 0 // micro-batches holding real rows
							for i := 0; i < mbs; i++ {
								if lo, _ := cfg.mbBounds(i); lo < real {
									k++
								}
							}
							view, err := m.WithBatch(real, k)
							if err != nil {
								t.Fatal(err)
							}
							own := NewEngine(view, taskrt.NewInline(nil))
							own.InferDType = dt
							rows := full.sliceRows(0, real)
							_, want, err := own.InferProbs(rows)
							if err != nil {
								t.Fatal(err)
							}
							if got != want {
								t.Fatalf("Real=%d: loss %g, engine at Batch %d %g", real, got, real, want)
							}
						}
					})
				}
			}
		}
	}
}

// labelOnlyRow turns every label of b outside row i into IgnoreLabel, so a
// slot's summed loss is row i's alone.
func labelOnlyRow(b *Batch, i int) *Batch {
	for r := range b.Targets {
		if r != i {
			b.Targets[r] = tensor.IgnoreLabel
		}
	}
	for _, row := range b.StepTargets {
		for r := range row {
			if r != i {
				row[r] = tensor.IgnoreLabel
			}
		}
	}
	return b
}

// TestLoadV1Checkpoint hand-crafts a version-1 byte stream — magic, the 11
// int64 config fields with no head table, layer weights, then the single
// baked-in head — and requires LoadModel to reconstruct the model exactly.
func TestLoadV1Checkpoint(t *testing.T) {
	cfg := smallCfg(LSTM, ManyToOne, 2)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.WriteString("BPAR0001")
	header := []int64{
		int64(cfg.Cell), int64(cfg.Arch), int64(cfg.Merge),
		int64(cfg.InputSize), int64(cfg.HiddenSize), int64(cfg.Layers),
		int64(cfg.SeqLen), int64(cfg.Batch), int64(cfg.Classes),
		int64(cfg.MiniBatches), int64(cfg.Seed),
	}
	for _, v := range header {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	for l := 0; l < cfg.Layers; l++ {
		for _, p := range []*dirParams{m.dir[fwdDir][l], m.dir[revDir][l]} {
			w, bias := p.wParams()
			if err := binary.Write(&buf, binary.LittleEndian, w.Data); err != nil {
				t.Fatal(err)
			}
			if err := binary.Write(&buf, binary.LittleEndian, bias); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := binary.Write(&buf, binary.LittleEndian, m.Heads[0].W.Data); err != nil {
		t.Fatal(err)
	}
	if err := binary.Write(&buf, binary.LittleEndian, m.Heads[0].B); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatalf("v1 checkpoint rejected: %v", err)
	}
	if !reflect.DeepEqual(loaded.Cfg, cfg) {
		t.Fatalf("config mismatch: %+v vs %+v", loaded.Cfg, cfg)
	}
	if !loaded.WeightsEqual(m) {
		t.Fatalf("weights not bitwise preserved: %g", loaded.WeightsMaxAbsDiff(m))
	}
	b := makeBatch(cfg, 99)
	_, lossA, err := NewEngine(m, taskrt.NewInline(nil)).Infer(b)
	if err != nil {
		t.Fatal(err)
	}
	_, lossB, err := NewEngine(loaded, taskrt.NewInline(nil)).Infer(b)
	if err != nil {
		t.Fatal(err)
	}
	if lossA != lossB {
		t.Fatalf("loaded v1 model diverges: %g vs %g", lossA, lossB)
	}
}

// TestMultiHeadSaveLoadRoundtrip: the version-2 head table survives a save /
// load cycle on a trained three-head model.
func TestMultiHeadSaveLoadRoundtrip(t *testing.T) {
	cfg := multiHeadCfg(GRU, 2)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(m, taskrt.NewInline(nil))
	for i := 0; i < 3; i++ {
		if _, err := e.TrainStep(makeMultiBatch(cfg, uint64(i), true), 0.1); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Cfg, cfg) {
		t.Fatalf("config mismatch: %+v vs %+v", loaded.Cfg, cfg)
	}
	if len(loaded.Heads) != 3 {
		t.Fatalf("loaded %d heads, want 3", len(loaded.Heads))
	}
	if !loaded.WeightsEqual(m) {
		t.Fatalf("weights not bitwise preserved: %g", loaded.WeightsMaxAbsDiff(m))
	}
}

// TestBSeqMatchesBParMultiHeadMasked: the data-parallel-only baseline slices
// Lens and both label kinds through its microbatch splits, so it still
// computes bitwise the same masked multi-head update as B-Par.
func TestBSeqMatchesBParMultiHeadMasked(t *testing.T) {
	cfg := multiHeadCfg(LSTM, 3)
	parM, parLoss := trainNMulti(t, cfg, true, false, parallelExec(4, taskrt.BreadthFirst), 3)

	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt := taskrt.New(taskrt.Options{Workers: 4})
	bs := NewBSeq(m, rt)
	var loss float64
	for i := 0; i < 3; i++ {
		b := makeMultiBatch(cfg, uint64(100+i), true)
		loss, err = bs.TrainStep(b, 0.05)
		if err != nil {
			t.Fatal(err)
		}
	}
	rt.Shutdown()
	if !m.WeightsEqual(parM) {
		t.Fatalf("BSeq diverged from B-Par: %g", m.WeightsMaxAbsDiff(parM))
	}
	if loss != parLoss {
		t.Fatalf("losses differ: %g vs %g", loss, parLoss)
	}
}

// TestSliceRealSentinel pins the Real-sentinel arithmetic microbatch slicing
// relies on: 0 keeps every row real, negative means none, and positive
// counts are clamped into the slice window.
func TestSliceRealSentinel(t *testing.T) {
	cases := []struct {
		real, lo, hi, want int
	}{
		{0, 0, 4, 0},   // unset: all rows real
		{-1, 0, 4, -1}, // explicit none stays none
		{2, 2, 4, -1},  // real rows end at the slice start: none real here
		{1, 2, 4, -1},
		{4, 0, 4, 0}, // covers the whole slice: all real
		{6, 2, 4, 0}, // beyond the slice: all real
		{3, 2, 4, 1}, // straddles: one real row remains
		{3, 0, 2, 0}, // fully real prefix slice
		{2, 0, 4, 2}, // plain count within window
	}
	for _, c := range cases {
		if got := sliceReal(c.real, c.lo, c.hi); got != c.want {
			t.Errorf("sliceReal(%d, %d, %d) = %d, want %d", c.real, c.lo, c.hi, got, c.want)
		}
	}
}
