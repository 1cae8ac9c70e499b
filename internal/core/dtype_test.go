package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// f32ProbTol bounds |p32 - p64| for the engine's float32 inference mirror.
// Logit error grows with depth (layers x seq x hidden reductions at eps32 per
// dot, see the tensor-level band) but softmax compresses it by the
// distribution scale; 1e-4 holds with orders of magnitude to spare for the
// small shapes here and catches any dtype-plumbing bug, which shows up at
// 1e-1 scale or as an exact zero diff (f32 graph not exercised).
const f32ProbTol = 1e-4

// inferProbsWith runs one forward pass on a fresh engine over model m with
// the given dtype/replay knobs, returning flattened per-head probabilities.
func inferProbsWith(t *testing.T, m *Model, b *Batch, dt tensor.DType, noReplay bool) []*tensor.Matrix {
	t.Helper()
	rt := taskrt.New(taskrt.Options{Workers: 2})
	defer rt.Shutdown()
	e := NewEngine(m, rt)
	e.InferDType = dt
	e.NoReplay = noReplay
	probs, _, err := e.InferProbs(b)
	if err != nil {
		t.Fatal(err)
	}
	return probs
}

func probsMaxDiff(a, b []*tensor.Matrix) float64 {
	d := 0.0
	for h := range a {
		for i := range a[h].Data {
			d = math.Max(d, math.Abs(a[h].Data[i]-b[h].Data[i]))
		}
	}
	return d
}

// TestInferF32MatchesF64 sweeps the full configuration matrix the float32
// mirror must cover — every cell kind, cached and fresh capture, both
// architectures — and checks the probabilities stay in
// the tolerance band while genuinely differing from f64 (a bitwise-equal
// result would mean the f32 graph never ran), and that the replayed and
// freshly captured f32 graphs agree bitwise with each other.
func TestInferF32MatchesF64(t *testing.T) {
	for _, cell := range []CellKind{LSTM, GRU, RNN} {
		for _, arch := range []Arch{ManyToOne, ManyToMany} {
			cfg := smallCfg(cell, arch, 1)
			m, err := NewModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b := makeBatch(cfg, 5)
			var p32s [2][]*tensor.Matrix // replayed, fresh emission
			for i, noReplay := range []bool{false, true} {
				p64 := inferProbsWith(t, m, b, tensor.F64, noReplay)
				p32 := inferProbsWith(t, m, b, tensor.F32, noReplay)
				p32s[i] = p32

				d := probsMaxDiff(p64, p32)
				if d > f32ProbTol {
					t.Errorf("%v/%v noReplay=%v: f32 probs off by %g", cell, arch, noReplay, d)
				}
				if d == 0 {
					t.Errorf("%v/%v noReplay=%v: f32 probs bitwise-equal to f64; mirror graph not exercised", cell, arch, noReplay)
				}
			}
			for h := range p32s[0] {
				if !p32s[0][h].Equal(p32s[1][h]) {
					t.Errorf("%v/%v head %d: f32 replay not bitwise-equal to f32 fresh emission (max diff %g)",
						cell, arch, h, p32s[0][h].MaxAbsDiff(p32s[1][h]))
				}
			}
		}
	}
}

// TestWeightCachesTrackTraining is the invalidation contract: one engine
// infers first, then alternates training and inference, and after every
// update its inference must match a fresh engine built from the current
// weights — the f32 mirror has to reconvert and its packed panels repack.
// Its losses, weights and probabilities must also equal, bitwise, those of a
// train-first engine: a serving engine that later builds its training half
// trains and infers exactly like one that trained from the start.
func TestWeightCachesTrackTraining(t *testing.T) {
	for _, cell := range []CellKind{LSTM, GRU} {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			for _, mbs := range []int{1, 2} {
				for _, noReplay := range []bool{false, true} {
					t.Run(fmt.Sprintf("%v/%v/mbs%d/noReplay=%v", cell, dt, mbs, noReplay), func(t *testing.T) {
						cfg := smallCfg(cell, ManyToOne, mbs)
						rt := taskrt.New(taskrt.Options{Workers: 2})
						defer rt.Shutdown()
						newEng := func(exec taskrt.Executor) *Engine {
							m, err := NewModel(cfg)
							if err != nil {
								t.Fatal(err)
							}
							e := NewEngine(m, exec)
							e.InferDType, e.NoReplay = dt, noReplay
							return e
						}
						e, trainFirst := newEng(rt), newEng(taskrt.NewInline(nil))
						b := makeBatch(cfg, 7)
						if _, _, err := e.InferProbs(b); err != nil {
							t.Fatal(err)
						}
						for i := 0; i < 3; i++ {
							tb := makeBatch(cfg, uint64(80+i))
							loss, err := e.TrainStep(tb, 0.1)
							if err != nil {
								t.Fatal(err)
							}
							wantLoss, err := trainFirst.TrainStep(tb, 0.1)
							if err != nil {
								t.Fatal(err)
							}
							if loss != wantLoss || !e.M.WeightsEqual(trainFirst.M) {
								t.Fatalf("update %d: loss %g, train-first %g; weights differ by %g", i, loss, wantLoss, e.M.WeightsMaxAbsDiff(trainFirst.M))
							}
							got, gotLoss, err := e.InferProbs(b)
							if err != nil {
								t.Fatal(err)
							}
							want, wantLoss, err := trainFirst.InferProbs(b)
							if err != nil {
								t.Fatal(err)
							}
							if d := probsMaxDiff(want, got); d != 0 || gotLoss != wantLoss {
								t.Fatalf("after update %d: inference differs from a train-first engine's by %g (loss %g vs %g)", i, d, gotLoss, wantLoss)
							}
							// A fresh engine converts the *current* weights from
							// scratch: if the long-lived engine's caches went stale,
							// the two diverge at 1e-2 scale (the size of an SGD
							// step), far outside the f32 band.
							fresh := inferProbsWith(t, e.M, b, dt, false)
							if d := probsMaxDiff(fresh, got); d > 1e-7 {
								t.Fatalf("after update %d: cached inference drifted %g from fresh conversion", i, d)
							}
							ref := inferProbsWith(t, e.M, b, tensor.F64, false)
							if d := probsMaxDiff(ref, got); d > f32ProbTol {
								t.Fatalf("after update %d: inference off f64 reference by %g", i, d)
							}
						}
					})
				}
			}
		}
	}
}

// TestF32LeavesF64BuffersUntouched is the structural half of the dtype seam:
// an f32 inference must leave the f64 cell-state buffers exactly as the last
// training step left them (the f64 graph tasks were not emitted) while the
// f32 mirrors carry activations. Before any training step the f64 buffers do
// not exist at all (TestInferAllocatesNoTrainingState).
func TestF32LeavesF64BuffersUntouched(t *testing.T) {
	cfg := smallCfg(LSTM, ManyToOne, 1)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt := taskrt.New(taskrt.Options{Workers: 2})
	defer rt.Shutdown()
	e := NewEngine(m, rt)
	e.InferDType = tensor.F32
	if _, err := e.TrainStep(makeBatch(cfg, 2), 0.1); err != nil {
		t.Fatal(err)
	}
	ws := e.workspaces(cfg.SeqLen)[0]
	trained := slices.Clone(ws.st[fwdDir][0][1].lstm.H.Data)
	if _, _, err := e.InferProbs(makeBatch(cfg, 3)); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ws.st[fwdDir][0][1].lstm.H.Data, trained) {
		t.Fatal("f64 cell state written during f32 inference")
	}
	if !slices.ContainsFunc(ws.f32.st[fwdDir][0][1].lstm.H.Data, func(v float32) bool { return v != 0 }) {
		t.Fatal("f32 cell state all zero: mirror graph did not run")
	}
}
