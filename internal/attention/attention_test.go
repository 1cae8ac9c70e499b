package attention

import (
	"math"
	"testing"

	"bpar/internal/costmodel"
	"bpar/internal/rng"
	"bpar/internal/sim"
	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

func newInit(t *testing.T, dIn, dModel, dOut int, seed uint64) *Weights {
	t.Helper()
	w := NewWeights(dIn, dModel, dOut)
	w.Init(rng.New(seed))
	return w
}

// loss computes a masked sum of the layer output, the scalar for numeric
// gradient checking.
func loss(w *Weights, x, mask *tensor.Matrix) float64 {
	st := NewState(w, x.Rows)
	Forward(w, x, st)
	s := 0.0
	for i, v := range st.Out.Data {
		s += mask.Data[i] * v
	}
	return s
}

func TestForwardShapesAndAttentionRows(t *testing.T) {
	w := newInit(t, 5, 4, 3, 1)
	r := rng.New(2)
	x := tensor.New(6, 5)
	r.FillUniform(x.Data, -1, 1)
	st := NewState(w, 6)
	Forward(w, x, st)
	if st.Out.Rows != 6 || st.Out.Cols != 3 {
		t.Fatalf("out shape %dx%d", st.Out.Rows, st.Out.Cols)
	}
	// Attention rows are probability distributions.
	for i := 0; i < 6; i++ {
		sum := 0.0
		for _, v := range st.A.Row(i) {
			if v < 0 {
				t.Fatal("negative attention weight")
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("attention row %d sums to %g", i, sum)
		}
	}
}

func TestGradientCheck(t *testing.T) {
	const (
		T, dIn, dModel, dOut = 4, 3, 4, 2
		h                    = 1e-6
		tol                  = 1e-5
	)
	w := newInit(t, dIn, dModel, dOut, 7)
	r := rng.New(8)
	x := tensor.New(T, dIn)
	r.FillUniform(x.Data, -1, 1)
	mask := tensor.New(T, dOut)
	r.FillUniform(mask.Data, -1, 1)

	st := NewState(w, T)
	Forward(w, x, st)
	grads := NewGrads(w)
	dX := tensor.New(T, dIn)
	Backward(w, st, mask, dX, grads)

	check := func(name string, params *tensor.Matrix, analytic *tensor.Matrix, indices []int) {
		for _, idx := range indices {
			orig := params.Data[idx]
			params.Data[idx] = orig + h
			lp := loss(w, x, mask)
			params.Data[idx] = orig - h
			lm := loss(w, x, mask)
			params.Data[idx] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-analytic.Data[idx]) > tol {
				t.Fatalf("%s[%d]: analytic %g numeric %g", name, idx, analytic.Data[idx], num)
			}
		}
	}
	check("Wq", w.Wq, grads.DWq, []int{0, 5, len(w.Wq.Data) - 1})
	check("Wk", w.Wk, grads.DWk, []int{0, 5, len(w.Wk.Data) - 1})
	check("Wv", w.Wv, grads.DWv, []int{0, 5, len(w.Wv.Data) - 1})
	check("Wo", w.Wo, grads.DWo, []int{0, 3, len(w.Wo.Data) - 1})

	// Input gradient.
	for _, idx := range []int{0, T*dIn - 1} {
		orig := x.Data[idx]
		x.Data[idx] = orig + h
		lp := loss(w, x, mask)
		x.Data[idx] = orig - h
		lm := loss(w, x, mask)
		x.Data[idx] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-dX.Data[idx]) > tol {
			t.Fatalf("dX[%d]: analytic %g numeric %g", idx, dX.Data[idx], num)
		}
	}
}

// TestTaskGraphMatchesDirectForward: the emitted task graph computes, on the
// parallel runtime, bitwise the same outputs as direct sequential calls.
func TestTaskGraphMatchesDirectForward(t *testing.T) {
	const nSeq, T, dIn, dModel, dOut = 6, 5, 4, 4, 3
	w := newInit(t, dIn, dModel, dOut, 11)
	r := rng.New(12)
	xs := make([]*tensor.Matrix, nSeq)
	for i := range xs {
		xs[i] = tensor.New(T, dIn)
		r.FillUniform(xs[i].Data, -1, 1)
	}

	// Reference: direct forward.
	want := make([]*State, nSeq)
	for i := range xs {
		want[i] = NewState(w, T)
		Forward(w, xs[i], want[i])
	}

	// Task graph on the parallel runtime.
	rt := taskrt.New(taskrt.Options{Workers: 4, Policy: taskrt.LocalityAware})
	defer rt.Shutdown()
	got := make([]*State, nSeq)
	for i := range got {
		got[i] = NewState(w, T)
	}
	EmitForward(rt, w, xs, got)
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !got[i].Out.Equal(want[i].Out) {
			t.Fatalf("sequence %d: task-graph output differs by %g", i, got[i].Out.MaxAbsDiff(want[i].Out))
		}
	}
}

// TestTaskGraphStructure: per sequence, 6 tasks with the expected dataflow;
// sequences are independent (graph width scales with batch).
func TestTaskGraphStructure(t *testing.T) {
	const nSeq, T = 4, 5
	w := newInit(t, 3, 4, 2, 13)
	r := rng.New(14)
	xs := make([]*tensor.Matrix, nSeq)
	states := make([]*State, nSeq)
	for i := range xs {
		xs[i] = tensor.New(T, 3)
		r.FillUniform(xs[i].Data, -1, 1)
		states[i] = NewState(w, T)
	}
	rec := taskrt.NewCapture()
	EmitForward(rec, w, xs, states)
	g := rec.Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 6*nSeq {
		t.Fatalf("nodes %d, want %d", len(g.Nodes), 6*nSeq)
	}
	if g.CountKind("attn-proj") != 3*nSeq {
		t.Fatal("projection task count")
	}
	// Projections of one sequence are mutually independent: width >= 3*nSeq.
	if g.MaxWidth() < 3*nSeq {
		t.Fatalf("width %d, want >= %d", g.MaxWidth(), 3*nSeq)
	}

	// And the graph parallelizes on the simulated machine.
	r1, err := sim.Run(g, sim.Options{Machine: costmodel.XeonPlatinum8160x2(), Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	rN, err := sim.Run(g, sim.Options{Machine: costmodel.XeonPlatinum8160x2(), Cores: 12})
	if err != nil {
		t.Fatal(err)
	}
	if rN.MakespanSec >= r1.MakespanSec {
		t.Fatal("attention graph failed to parallelize in simulation")
	}
}

func TestParamCountAndFlops(t *testing.T) {
	w := NewWeights(8, 16, 4)
	if w.ParamCount() != 3*16*8+4*16 {
		t.Fatalf("params %d", w.ParamCount())
	}
	if ForwardFlops(10, 8, 16, 4) <= 0 {
		t.Fatal("flops estimate")
	}
}

func TestNewWeightsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWeights(0, 4, 4)
}

func TestGradsZero(t *testing.T) {
	w := NewWeights(2, 3, 2)
	g := NewGrads(w)
	g.DWq.Fill(1)
	g.DWo.Fill(2)
	g.Zero()
	if !g.DWq.Equal(tensor.New(g.DWq.Rows, g.DWq.Cols)) || !g.DWo.Equal(tensor.New(g.DWo.Rows, g.DWo.Cols)) {
		t.Fatal("Zero failed")
	}
}
