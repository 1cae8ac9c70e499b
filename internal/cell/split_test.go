package cell

import (
	"math"
	"testing"

	"bpar/internal/rng"
	"bpar/internal/tensor"
)

func randMat(r *rng.RNG, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	r.FillUniform(m.Data, -1, 1)
	return m
}

// lstmStep, gruStep and rnnStep are one whole forward cell update: the input
// projection, then the chain remainder — the two tasks the engine splits it
// into.
func lstmStep[E tensor.Elt](w *LSTMWeightsOf[E], x, hPrev, cPrev *tensor.Mat[E], st *LSTMStateOf[E]) {
	pre := tensor.NewOf[E](x.Rows, lstmGates*w.HiddenSize)
	LSTMPreGates(w, x, pre)
	LSTMForwardPre(w, pre, hPrev, cPrev, st)
}

func gruStep[E tensor.Elt](w *GRUWeightsOf[E], x, hPrev *tensor.Mat[E], st *GRUStateOf[E]) {
	pre := tensor.NewOf[E](x.Rows, gruGates*w.HiddenSize)
	GRUPreGates(w, x, pre)
	GRUForwardPre(w, pre, hPrev, st)
}

func rnnStep[E tensor.Elt](w *RNNWeightsOf[E], x, hPrev *tensor.Mat[E], st *RNNStateOf[E]) {
	pre := tensor.NewOf[E](x.Rows, w.HiddenSize)
	tensor.MatMulTCols(pre, x, w.W, 0)
	tensor.AddBiasRows(pre, w.B)
	RNNForwardPre(w, pre, hPrev, st)
}

// checkFD compares every element of grad with the central difference of loss
// over the matching element of param.
func checkFD(t *testing.T, name string, param, grad []float64, loss func() float64) {
	t.Helper()
	const h, tol = 1e-6, 1e-5
	for i, orig := range param {
		param[i] = orig + h
		lp := loss()
		param[i] = orig - h
		lm := loss()
		param[i] = orig
		if num := (lp - lm) / (2 * h); math.Abs(num-grad[i]) > tol {
			t.Fatalf("%s[%d]: analytic %g numeric %g", name, i, grad[i], num)
		}
	}
}

// chainGrads backpropagates masked-sum losses through a cell chain the way the
// engine's tasks do: back sweeps the chain from its last cell, handing each
// cell its summed dH and a fresh gate-gradient panel, and returns the
// panels; the batched dx fold then gives every timestep's input gradient.
func chainGrads(w *tensor.Matrix, in, gw int, masks []*tensor.Matrix, back func(t int, dH, panel *tensor.Matrix) (dHPrev *tensor.Matrix)) (panels, dXs []*tensor.Matrix) {
	batch, steps := masks[0].Rows, len(masks)
	panels, dXs = make([]*tensor.Matrix, steps), make([]*tensor.Matrix, steps)
	dHChain := tensor.New(batch, masks[0].Cols)
	for t := steps - 1; t >= 0; t-- {
		dH := masks[t].Clone()
		tensor.AddAcc(dH, dHChain)
		panels[t] = tensor.New(batch, gw)
		dHChain = back(t, dH, panels[t])
		dXs[t] = tensor.New(batch, in)
	}
	tensor.GemmAccColsBatch(dXs, panels, 0, gw, w, 0)
	return panels, dXs
}

// --- zero-alloc assertions: a warmed-up backward chain cell must not touch
// the heap.

func TestLSTMBackwardZeroAlloc(t *testing.T) {
	const batch, in, h = 2, 24, 16
	r := rng.New(5)
	w := NewLSTMWeights(in, h)
	w.Init(r)
	st := NewLSTMState(batch, in, h)
	x, hPrev, cPrev := randMat(r, batch, in), randMat(r, batch, h), randMat(r, batch, h)
	lstmStep(w, x, hPrev, cPrev, st)
	dH := randMat(r, batch, h)
	dHp, dCp := tensor.New(batch, h), tensor.New(batch, h)
	g := NewLSTMGrads(w)
	panel := tensor.New(batch, lstmGates*h)
	if n := testing.AllocsPerRun(10, func() {
		LSTMBackwardPre(w, st, hPrev, cPrev, dH, nil, panel, nil, dHp, dCp, g)
	}); n != 0 {
		t.Fatalf("LSTM backward allocates %v times per call", n)
	}
}

func TestGRUBackwardZeroAlloc(t *testing.T) {
	const batch, in, h = 2, 24, 16
	r := rng.New(6)
	w := NewGRUWeights(in, h)
	w.Init(r)
	st := NewGRUState(batch, in, h)
	x, hPrev := randMat(r, batch, in), randMat(r, batch, h)
	gruStep(w, x, hPrev, st)
	dH := randMat(r, batch, h)
	dHp := tensor.New(batch, h)
	g := NewGRUGrads(w)
	panel := tensor.New(batch, gruGates*h)
	GRUBackwardPre(w, st, hPrev, dH, panel, nil, dHp, g) // warm the scratch
	if n := testing.AllocsPerRun(10, func() {
		GRUBackwardPre(w, st, hPrev, dH, panel, nil, dHp, g)
	}); n != 0 {
		t.Fatalf("GRU backward allocates %v times per call", n)
	}
}

func TestRNNBackwardZeroAlloc(t *testing.T) {
	const batch, in, h = 2, 24, 16
	r := rng.New(7)
	w := NewRNNWeights(in, h)
	w.Init(r)
	st := NewRNNStateOf[float64](batch, in, h)
	x, hPrev := randMat(r, batch, in), randMat(r, batch, h)
	rnnStep(w, x, hPrev, st)
	dH := randMat(r, batch, h)
	dHp := tensor.New(batch, h)
	panel := tensor.New(batch, h)
	if n := testing.AllocsPerRun(10, func() {
		RNNBackwardPre(w, st, hPrev, dH, panel, dHp)
	}); n != 0 {
		t.Fatalf("RNN backward allocates %v times per call", n)
	}
}

// BenchmarkLSTMChainStep times the chain-resident forward cell at the paper's
// batch-1 Table III shape.
func BenchmarkLSTMChainStep(b *testing.B) {
	const batch, in, h = 1, 256, 256
	r := rng.New(1)
	w := NewLSTMWeights(in, h)
	w.Init(r)
	st := NewLSTMState(batch, in, h)
	x, hPrev, cPrev := randMat(r, batch, in), randMat(r, batch, h), randMat(r, batch, h)
	pre := tensor.New(batch, lstmGates*h)
	LSTMPreGates(w, x, pre)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		LSTMForwardPre(w, pre, hPrev, cPrev, st)
	}
}

// BenchmarkLSTMBackwardCell times the chain-resident backward cell and shows
// its alloc-free steady state under the benchmark harness.
func BenchmarkLSTMBackwardCell(b *testing.B) {
	const batch, in, h = 1, 256, 256
	r := rng.New(1)
	w := NewLSTMWeights(in, h)
	w.Init(r)
	st := NewLSTMState(batch, in, h)
	x, hPrev, cPrev := randMat(r, batch, in), randMat(r, batch, h), randMat(r, batch, h)
	lstmStep(w, x, hPrev, cPrev, st)
	dH := randMat(r, batch, h)
	dHp, dCp := tensor.New(batch, h), tensor.New(batch, h)
	g := NewLSTMGrads(w)
	panel := tensor.New(batch, lstmGates*h)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		LSTMBackwardPre(w, st, hPrev, cPrev, dH, nil, panel, nil, dHp, dCp, g)
	}
}
