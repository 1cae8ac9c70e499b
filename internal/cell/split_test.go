package cell

import (
	"math"
	"testing"

	"bpar/internal/rng"
	"bpar/internal/tensor"
)

// splitTol is the fused-vs-split agreement bound: the two paths reassociate
// the same floating-point sums, so they agree to ~1e-12 relative but not
// bitwise. The acceptance bound is 1e-9.
const splitTol = 1e-9

func randMat(r *rng.RNG, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	r.FillUniform(m.Data, -1, 1)
	return m
}

func sliceMaxDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

// splitShapes covers In < H, In > H, In == H, batch 1 and > 1.
var splitShapes = [][3]int{{1, 24, 16}, {3, 16, 24}, {2, 32, 32}}

func TestLSTMSplitMatchesFused(t *testing.T) {
	const T = 5
	for _, d := range splitShapes {
		batch, in, h := d[0], d[1], d[2]
		r := rng.New(42)
		w := NewLSTMWeights(in, h)
		w.Init(r)
		xs := make([]*tensor.Matrix, T)
		dHs := make([]*tensor.Matrix, T)
		for s := range xs {
			xs[s] = randMat(r, batch, in)
			dHs[s] = randMat(r, batch, h)
		}
		zero := tensor.New(batch, h)

		// Forward, both paths.
		fSt := make([]*LSTMState, T)
		sSt := make([]*LSTMState, T)
		pres := make([]*tensor.Matrix, T)
		hF, cF, hS, cS := zero, zero, zero, zero
		for s := 0; s < T; s++ {
			fSt[s] = NewLSTMState(batch, in, h)
			LSTMForward(w, xs[s], hF, cF, fSt[s])
			hF, cF = fSt[s].H, fSt[s].C

			sSt[s] = NewLSTMState(batch, in, h)
			pres[s] = tensor.New(batch, lstmGates*h)
			LSTMPreGates(w, xs[s], pres[s])
			LSTMForwardPre(w, pres[s], hS, cS, sSt[s])
			hS, cS = sSt[s].H, sSt[s].C
			if df := fSt[s].H.MaxAbsDiff(sSt[s].H); df > splitTol {
				t.Fatalf("shape %v t=%d: forward H diff %g", d, s, df)
			}
			if df := fSt[s].C.MaxAbsDiff(sSt[s].C); df > splitTol {
				t.Fatalf("shape %v t=%d: forward C diff %g", d, s, df)
			}
		}

		// Backward, both paths.
		gF := NewLSTMGrads(w)
		gS := NewLSTMGrads(w)
		dXf := make([]*tensor.Matrix, T)
		dXs := make([]*tensor.Matrix, T)
		panels := make([]*tensor.Matrix, T)
		dHcF, dCcF := tensor.New(batch, h), (*tensor.Matrix)(nil)
		dHcS, dCcS := tensor.New(batch, h), (*tensor.Matrix)(nil)
		for s := T - 1; s >= 0; s-- {
			cPrevF, cPrevS, hPrevS := zero, zero, zero
			if s > 0 {
				cPrevF, cPrevS, hPrevS = fSt[s-1].C, sSt[s-1].C, sSt[s-1].H
			}
			dHt := dHs[s].Clone()
			tensor.AddAcc(dHt, dHcF)
			dXf[s] = tensor.New(batch, in)
			dHcF = tensor.New(batch, h)
			dCn := tensor.New(batch, h)
			LSTMBackward(w, fSt[s], cPrevF, dHt, dCcF, dXf[s], dHcF, dCn, gF)
			dCcF = dCn

			dHt = dHs[s].Clone()
			tensor.AddAcc(dHt, dHcS)
			dXs[s] = tensor.New(batch, in)
			panels[s] = tensor.New(batch, lstmGates*h)
			dHcS = tensor.New(batch, h)
			dCn = tensor.New(batch, h)
			LSTMBackwardPre(w, sSt[s], hPrevS, cPrevS, dHt, dCcS, panels[s], dXs[s], dHcS, dCn, gS)
			dCcS = dCn
		}
		tensor.GemmATAccColsBatch(gS.DW, 0, panels, 0, lstmGates*h, xs)
		if df := gF.DW.MaxAbsDiff(gS.DW); df > splitTol {
			t.Fatalf("shape %v: DW diff %g", d, df)
		}
		if df := sliceMaxDiff(gF.DB, gS.DB); df > splitTol {
			t.Fatalf("shape %v: DB diff %g", d, df)
		}
		for s := 0; s < T; s++ {
			if df := dXf[s].MaxAbsDiff(dXs[s]); df > splitTol {
				t.Fatalf("shape %v t=%d: dX diff %g", d, s, df)
			}
		}

		// Deferred-gradient mode: the chain emits only panels and dHPrev,
		// and the stacked dot-form LSTMDWBatch folds DW (both halves) and
		// DB afterwards.
		gD := NewLSTMGrads(w)
		panelsD := make([]*tensor.Matrix, T)
		hPrevs := make([]*tensor.Matrix, T)
		dHcD, dCcD := tensor.New(batch, h), (*tensor.Matrix)(nil)
		for s := T - 1; s >= 0; s-- {
			hPrevs[s] = zero
			cPrevS := zero
			if s > 0 {
				hPrevs[s], cPrevS = sSt[s-1].H, sSt[s-1].C
			}
			dHt := dHs[s].Clone()
			tensor.AddAcc(dHt, dHcD)
			panelsD[s] = tensor.New(batch, lstmGates*h)
			dHn, dCn := tensor.New(batch, h), tensor.New(batch, h)
			LSTMBackwardPre(w, sSt[s], hPrevs[s], cPrevS, dHt, dCcD, panelsD[s], nil, dHn, dCn, gD)
			dHcD, dCcD = dHn, dCn
		}
		for s := range panelsD {
			if !panelsD[s].Equal(panels[s]) {
				t.Fatalf("shape %v t=%d: deferred panel differs from dX-mode panel", d, s)
			}
		}
		stackP := tensor.New(lstmGates*h, T*batch)
		stackB := tensor.New(max(in, h), T*batch)
		LSTMDWBatch(w, gD, panelsD, xs, hPrevs, stackP, stackB)
		if df := gF.DW.MaxAbsDiff(gD.DW); df > splitTol {
			t.Fatalf("shape %v: deferred DW diff %g", d, df)
		}
		if df := sliceMaxDiff(gF.DB, gD.DB); df > splitTol {
			t.Fatalf("shape %v: deferred DB diff %g", d, df)
		}
	}
}

func TestGRUSplitMatchesFused(t *testing.T) {
	const T = 5
	for _, d := range splitShapes {
		batch, in, h := d[0], d[1], d[2]
		r := rng.New(43)
		w := NewGRUWeights(in, h)
		w.Init(r)
		xs := make([]*tensor.Matrix, T)
		dHs := make([]*tensor.Matrix, T)
		for s := range xs {
			xs[s] = randMat(r, batch, in)
			dHs[s] = randMat(r, batch, h)
		}
		zero := tensor.New(batch, h)

		fSt := make([]*GRUState, T)
		sSt := make([]*GRUState, T)
		pres := make([]*tensor.Matrix, T)
		hF, hS := zero, zero
		for s := 0; s < T; s++ {
			fSt[s] = NewGRUState(batch, in, h)
			GRUForward(w, xs[s], hF, fSt[s])
			hF = fSt[s].H

			sSt[s] = NewGRUState(batch, in, h)
			pres[s] = tensor.New(batch, gruGates*h)
			GRUPreGates(w, xs[s], pres[s])
			GRUForwardPre(w, pres[s], hS, sSt[s])
			hS = sSt[s].H
			if df := fSt[s].H.MaxAbsDiff(sSt[s].H); df > splitTol {
				t.Fatalf("shape %v t=%d: forward H diff %g", d, s, df)
			}
		}

		gF := NewGRUGrads(w)
		gS := NewGRUGrads(w)
		dXf := make([]*tensor.Matrix, T)
		dXs := make([]*tensor.Matrix, T)
		panels := make([]*tensor.Matrix, T)
		dHcF := tensor.New(batch, h)
		dHcS := tensor.New(batch, h)
		for s := T - 1; s >= 0; s-- {
			hPrevF, hPrevS := zero, zero
			if s > 0 {
				hPrevF, hPrevS = fSt[s-1].H, sSt[s-1].H
			}
			dHt := dHs[s].Clone()
			tensor.AddAcc(dHt, dHcF)
			dXf[s] = tensor.New(batch, in)
			dHcF = tensor.New(batch, h)
			GRUBackward(w, fSt[s], hPrevF, dHt, dXf[s], dHcF, gF)

			dHt = dHs[s].Clone()
			tensor.AddAcc(dHt, dHcS)
			dXs[s] = tensor.New(batch, in)
			panels[s] = tensor.New(batch, gruGates*h)
			dHcS = tensor.New(batch, h)
			GRUBackwardPre(w, sSt[s], hPrevS, dHt, panels[s], dXs[s], dHcS, gS)
		}
		tensor.GemmATAccColsBatch(gS.DW, 0, panels, 0, gruGates*h, xs)
		if df := gF.DW.MaxAbsDiff(gS.DW); df > splitTol {
			t.Fatalf("shape %v: DW diff %g", d, df)
		}
		if df := sliceMaxDiff(gF.DB, gS.DB); df > splitTol {
			t.Fatalf("shape %v: DB diff %g", d, df)
		}
		for s := 0; s < T; s++ {
			if df := dXf[s].MaxAbsDiff(dXs[s]); df > splitTol {
				t.Fatalf("shape %v t=%d: dX diff %g", d, s, df)
			}
		}

		// Deferred-gradient mode + stacked GRUDWBatch (the candidate rows
		// fold against the cached r⊙hPrev panels).
		gD := NewGRUGrads(w)
		panelsD := make([]*tensor.Matrix, T)
		hPrevs := make([]*tensor.Matrix, T)
		rhs := make([]*tensor.Matrix, T)
		dHcD := tensor.New(batch, h)
		for s := T - 1; s >= 0; s-- {
			hPrevs[s] = zero
			if s > 0 {
				hPrevs[s] = sSt[s-1].H
			}
			rhs[s] = sSt[s].RH
			dHt := dHs[s].Clone()
			tensor.AddAcc(dHt, dHcD)
			panelsD[s] = tensor.New(batch, gruGates*h)
			dHn := tensor.New(batch, h)
			GRUBackwardPre(w, sSt[s], hPrevs[s], dHt, panelsD[s], nil, dHn, gD)
			dHcD = dHn
		}
		for s := range panelsD {
			if !panelsD[s].Equal(panels[s]) {
				t.Fatalf("shape %v t=%d: deferred panel differs from dX-mode panel", d, s)
			}
		}
		stackP := tensor.New(gruGates*h, T*batch)
		stackB := tensor.New(max(in, h), T*batch)
		GRUDWBatch(w, gD, panelsD, xs, hPrevs, rhs, stackP, stackB)
		if df := gF.DW.MaxAbsDiff(gD.DW); df > splitTol {
			t.Fatalf("shape %v: deferred DW diff %g", d, df)
		}
		if df := sliceMaxDiff(gF.DB, gD.DB); df > splitTol {
			t.Fatalf("shape %v: deferred DB diff %g", d, df)
		}
	}
}

func TestRNNSplitMatchesFused(t *testing.T) {
	const T = 5
	for _, d := range splitShapes {
		batch, in, h := d[0], d[1], d[2]
		r := rng.New(44)
		w := NewRNNWeights(in, h)
		w.Init(r)
		xs := make([]*tensor.Matrix, T)
		dHs := make([]*tensor.Matrix, T)
		for s := range xs {
			xs[s] = randMat(r, batch, in)
			dHs[s] = randMat(r, batch, h)
		}
		zero := tensor.New(batch, h)

		fSt := make([]*RNNState, T)
		sSt := make([]*RNNState, T)
		pres := make([]*tensor.Matrix, T)
		hF, hS := zero, zero
		for s := 0; s < T; s++ {
			fSt[s] = NewRNNStateOf[float64](batch, in, h)
			RNNForward(w, xs[s], hF, fSt[s])
			hF = fSt[s].H

			sSt[s] = NewRNNStateOf[float64](batch, in, h)
			pres[s] = tensor.New(batch, h)
			RNNPreGates(w, xs[s], pres[s])
			RNNForwardPre(w, pres[s], hS, sSt[s])
			hS = sSt[s].H
			if df := fSt[s].H.MaxAbsDiff(sSt[s].H); df > splitTol {
				t.Fatalf("shape %v t=%d: forward H diff %g", d, s, df)
			}
		}

		gF := NewRNNGrads(w)
		gS := NewRNNGrads(w)
		dXf := make([]*tensor.Matrix, T)
		dXs := make([]*tensor.Matrix, T)
		panels := make([]*tensor.Matrix, T)
		dHcF := tensor.New(batch, h)
		dHcS := tensor.New(batch, h)
		for s := T - 1; s >= 0; s-- {
			hPrevS := zero
			if s > 0 {
				hPrevS = sSt[s-1].H
			}
			dHt := dHs[s].Clone()
			tensor.AddAcc(dHt, dHcF)
			dXf[s] = tensor.New(batch, in)
			dHcF = tensor.New(batch, h)
			RNNBackward(w, fSt[s], dHt, dXf[s], dHcF, gF)

			dHt = dHs[s].Clone()
			tensor.AddAcc(dHt, dHcS)
			dXs[s] = tensor.New(batch, in)
			panels[s] = tensor.New(batch, h)
			dHcS = tensor.New(batch, h)
			RNNBackwardPre(w, sSt[s], hPrevS, dHt, panels[s], dXs[s], dHcS, gS)
		}
		tensor.GemmATAccColsBatch(gS.DW, 0, panels, 0, h, xs)
		if df := gF.DW.MaxAbsDiff(gS.DW); df > splitTol {
			t.Fatalf("shape %v: DW diff %g", d, df)
		}
		if df := sliceMaxDiff(gF.DB, gS.DB); df > splitTol {
			t.Fatalf("shape %v: DB diff %g", d, df)
		}
		for s := 0; s < T; s++ {
			if df := dXf[s].MaxAbsDiff(dXs[s]); df > splitTol {
				t.Fatalf("shape %v t=%d: dX diff %g", d, s, df)
			}
		}

		// Deferred-gradient mode + stacked RNNDWBatch.
		gD := NewRNNGrads(w)
		panelsD := make([]*tensor.Matrix, T)
		hPrevs := make([]*tensor.Matrix, T)
		dHcD := tensor.New(batch, h)
		for s := T - 1; s >= 0; s-- {
			hPrevs[s] = zero
			if s > 0 {
				hPrevs[s] = sSt[s-1].H
			}
			dHt := dHs[s].Clone()
			tensor.AddAcc(dHt, dHcD)
			panelsD[s] = tensor.New(batch, h)
			dHn := tensor.New(batch, h)
			RNNBackwardPre(w, sSt[s], hPrevs[s], dHt, panelsD[s], nil, dHn, gD)
			dHcD = dHn
		}
		for s := range panelsD {
			if !panelsD[s].Equal(panels[s]) {
				t.Fatalf("shape %v t=%d: deferred panel differs from dX-mode panel", d, s)
			}
		}
		stackP := tensor.New(h, T*batch)
		stackB := tensor.New(max(in, h), T*batch)
		RNNDWBatch(w, gD, panelsD, xs, hPrevs, stackP, stackB)
		if df := gF.DW.MaxAbsDiff(gD.DW); df > splitTol {
			t.Fatalf("shape %v: deferred DW diff %g", d, df)
		}
		if df := sliceMaxDiff(gF.DB, gD.DB); df > splitTol {
			t.Fatalf("shape %v: deferred DB diff %g", d, df)
		}
	}
}

// --- zero-alloc assertions: a warmed-up backward cell must not touch the
// heap, on either path.

func TestLSTMBackwardZeroAlloc(t *testing.T) {
	const batch, in, h = 2, 24, 16
	r := rng.New(5)
	w := NewLSTMWeights(in, h)
	w.Init(r)
	st := NewLSTMState(batch, in, h)
	x, hPrev, cPrev := randMat(r, batch, in), randMat(r, batch, h), randMat(r, batch, h)
	LSTMForward(w, x, hPrev, cPrev, st)
	dH := randMat(r, batch, h)
	dX, dHp, dCp := tensor.New(batch, in), tensor.New(batch, h), tensor.New(batch, h)
	g := NewLSTMGrads(w)
	panel := tensor.New(batch, lstmGates*h)
	LSTMBackward(w, st, cPrev, dH, nil, dX, dHp, dCp, g) // warm the scratch
	if n := testing.AllocsPerRun(10, func() {
		LSTMBackward(w, st, cPrev, dH, nil, dX, dHp, dCp, g)
	}); n != 0 {
		t.Fatalf("fused LSTM backward allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		LSTMBackwardPre(w, st, hPrev, cPrev, dH, nil, panel, dX, dHp, dCp, g)
	}); n != 0 {
		t.Fatalf("split LSTM backward allocates %v times per call", n)
	}
}

func TestGRUBackwardZeroAlloc(t *testing.T) {
	const batch, in, h = 2, 24, 16
	r := rng.New(6)
	w := NewGRUWeights(in, h)
	w.Init(r)
	st := NewGRUState(batch, in, h)
	x, hPrev := randMat(r, batch, in), randMat(r, batch, h)
	GRUForward(w, x, hPrev, st)
	dH := randMat(r, batch, h)
	dX, dHp := tensor.New(batch, in), tensor.New(batch, h)
	g := NewGRUGrads(w)
	panel := tensor.New(batch, gruGates*h)
	GRUBackward(w, st, hPrev, dH, dX, dHp, g) // warm the scratch
	GRUBackwardPre(w, st, hPrev, dH, panel, dX, dHp, g)
	if n := testing.AllocsPerRun(10, func() {
		GRUBackward(w, st, hPrev, dH, dX, dHp, g)
	}); n != 0 {
		t.Fatalf("fused GRU backward allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		GRUBackwardPre(w, st, hPrev, dH, panel, dX, dHp, g)
	}); n != 0 {
		t.Fatalf("split GRU backward allocates %v times per call", n)
	}
}

func TestRNNBackwardZeroAlloc(t *testing.T) {
	const batch, in, h = 2, 24, 16
	r := rng.New(7)
	w := NewRNNWeights(in, h)
	w.Init(r)
	st := NewRNNStateOf[float64](batch, in, h)
	x, hPrev := randMat(r, batch, in), randMat(r, batch, h)
	RNNForward(w, x, hPrev, st)
	dH := randMat(r, batch, h)
	dX, dHp := tensor.New(batch, in), tensor.New(batch, h)
	g := NewRNNGrads(w)
	panel := tensor.New(batch, h)
	RNNBackward(w, st, dH, dX, dHp, g) // warm the scratch
	if n := testing.AllocsPerRun(10, func() {
		RNNBackward(w, st, dH, dX, dHp, g)
	}); n != 0 {
		t.Fatalf("fused RNN backward allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		RNNBackwardPre(w, st, hPrev, dH, panel, dX, dHp, g)
	}); n != 0 {
		t.Fatalf("split RNN backward allocates %v times per call", n)
	}
}

// BenchmarkLSTMChainStep compares the chain-resident critical path of the
// two forward formulations at the paper's batch-1 Table III shape.
func BenchmarkLSTMChainStep(b *testing.B) {
	const batch, in, h = 1, 256, 256
	r := rng.New(1)
	w := NewLSTMWeights(in, h)
	w.Init(r)
	st := NewLSTMState(batch, in, h)
	x, hPrev, cPrev := randMat(r, batch, in), randMat(r, batch, h), randMat(r, batch, h)
	pre := tensor.New(batch, lstmGates*h)
	LSTMPreGates(w, x, pre)
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			LSTMForward(w, x, hPrev, cPrev, st)
		}
	})
	b.Run("split-chain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			LSTMForwardPre(w, pre, hPrev, cPrev, st)
		}
	})
}

// BenchmarkLSTMBackwardCell verifies the alloc-free steady state under the
// benchmark harness (satellite: ReportAllocs evidence).
func BenchmarkLSTMBackwardCell(b *testing.B) {
	const batch, in, h = 1, 256, 256
	r := rng.New(1)
	w := NewLSTMWeights(in, h)
	w.Init(r)
	st := NewLSTMState(batch, in, h)
	x, hPrev, cPrev := randMat(r, batch, in), randMat(r, batch, h), randMat(r, batch, h)
	LSTMForward(w, x, hPrev, cPrev, st)
	dH := randMat(r, batch, h)
	dX, dHp, dCp := tensor.New(batch, in), tensor.New(batch, h), tensor.New(batch, h)
	g := NewLSTMGrads(w)
	panel := tensor.New(batch, lstmGates*h)
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			LSTMBackward(w, st, cPrev, dH, nil, dX, dHp, dCp, g)
		}
	})
	b.Run("split-chain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			LSTMBackwardPre(w, st, hPrev, cPrev, dH, nil, panel, dX, dHp, dCp, g)
		}
	})
}
