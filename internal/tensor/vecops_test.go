package tensor

import (
	"math"
	"testing"

	"bpar/internal/rng"
)

func TestAddMul(t *testing.T) {
	a := fromSlice(2, 2, []float64{1, 2, 3, 4})
	b := fromSlice(2, 2, []float64{5, 6, 7, 8})
	dst := New(2, 2)

	Add(dst, a, b)
	if !dst.Equal(fromSlice(2, 2, []float64{6, 8, 10, 12})) {
		t.Fatalf("Add got %v", dst)
	}
	Mul(dst, a, b)
	if !dst.Equal(fromSlice(2, 2, []float64{5, 12, 21, 32})) {
		t.Fatalf("Mul got %v", dst)
	}
}

func TestAddAcc(t *testing.T) {
	a := fromSlice(1, 3, []float64{1, 2, 3})
	dst := fromSlice(1, 3, []float64{5, 11, 19})
	AddAcc(dst, a)
	if !dst.Equal(fromSlice(1, 3, []float64{6, 13, 22})) {
		t.Fatalf("AddAcc got %v", dst)
	}
}

func TestScaleAxpyAverage(t *testing.T) {
	a := fromSlice(1, 2, []float64{2, 4})
	dst := New(1, 2)
	Scale(dst, 0.5, a)
	if !dst.Equal(fromSlice(1, 2, []float64{1, 2})) {
		t.Fatalf("Scale got %v", dst)
	}
	AxpyMatrix(dst, 2, a)
	if !dst.Equal(fromSlice(1, 2, []float64{5, 10})) {
		t.Fatalf("AxpyMatrix got %v", dst)
	}
	b := fromSlice(1, 2, []float64{3, 2})
	Average(dst, a, b)
	if !dst.Equal(fromSlice(1, 2, []float64{2.5, 3})) {
		t.Fatalf("Average got %v", dst)
	}
	ScaleInPlace(dst, 2)
	if !dst.Equal(fromSlice(1, 2, []float64{5, 6})) {
		t.Fatalf("ScaleInPlace got %v", dst)
	}
}

func TestAddBiasRows(t *testing.T) {
	m := New(3, 2)
	AddBiasRows(m, []float64{1, -1})
	for i := 0; i < 3; i++ {
		if m.At(i, 0) != 1 || m.At(i, 1) != -1 {
			t.Fatalf("AddBiasRows got %v", m)
		}
	}
}

func TestArgmaxRows(t *testing.T) {
	m := fromSlice(2, 3, []float64{0.1, 0.9, 0.5, 3, 2, 1})
	got := ArgmaxRows(m)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgmaxRows got %v", got)
	}
}

func TestClipInPlace(t *testing.T) {
	m := fromSlice(1, 4, []float64{-5, -0.5, 0.5, 5})
	ClipInPlace(m, 1)
	if !m.Equal(fromSlice(1, 4, []float64{-1, -0.5, 0.5, 1})) {
		t.Fatalf("ClipInPlace got %v", m)
	}
}

func TestSigmoidProperties(t *testing.T) {
	// Bounded, monotone, symmetric around 0.5, and overflow-safe.
	if Sigmoid(0) != 0.5 {
		t.Fatalf("Sigmoid(0)=%g", Sigmoid(0))
	}
	if Sigmoid(1000) != 1 || Sigmoid(-1000) != 0 {
		t.Fatal("Sigmoid must saturate without NaN")
	}
	prev := -1.0
	for x := -10.0; x <= 10; x += 0.25 {
		y := Sigmoid(x)
		if y <= prev {
			t.Fatalf("Sigmoid not strictly increasing at %g", x)
		}
		if s := Sigmoid(x) + Sigmoid(-x); math.Abs(s-1) > 1e-12 {
			t.Fatalf("Sigmoid symmetry broken at %g: %g", x, s)
		}
		prev = y
	}
}

func TestActivationInPlaceAndSlices(t *testing.T) {
	m := fromSlice(1, 3, []float64{-1, 0, 1})
	s := m.Clone()
	SigmoidInPlace(s)
	for i, v := range m.Data {
		if s.Data[i] != Sigmoid(v) {
			t.Fatal("SigmoidInPlace mismatch")
		}
	}
	th := m.Clone()
	TanhInPlace(th)
	for i, v := range m.Data {
		if th.Data[i] != tanh(v) {
			t.Fatal("TanhInPlace mismatch")
		}
	}
	sl := []float64{-2, 2}
	SigmoidSlice(sl)
	if sl[0] != Sigmoid(-2) || sl[1] != Sigmoid(2) {
		t.Fatal("SigmoidSlice mismatch")
	}
	tl := []float64{-2, 2}
	TanhSlice(tl)
	if tl[0] != tanh(-2) || tl[1] != tanh(2) {
		t.Fatal("TanhSlice mismatch")
	}
}

func TestDerivativeFromOutput(t *testing.T) {
	// Compare analytic derivative-from-output against central differences.
	const h = 1e-6
	for _, x := range []float64{-3, -0.7, 0, 0.7, 3} {
		y := Sigmoid(x)
		num := (Sigmoid(x+h) - Sigmoid(x-h)) / (2 * h)
		if math.Abs(DSigmoidFromY(y)-num) > 1e-6 {
			t.Fatalf("DSigmoidFromY off at %g: %g vs %g", x, DSigmoidFromY(y), num)
		}
		ty := math.Tanh(x)
		tnum := (math.Tanh(x+h) - math.Tanh(x-h)) / (2 * h)
		if math.Abs(DTanhFromY(ty)-tnum) > 1e-6 {
			t.Fatalf("DTanhFromY off at %g", x)
		}
	}
}

func TestSoftmaxRows(t *testing.T) {
	m := fromSlice(2, 3, []float64{1, 2, 3, 1000, 1000, 1000})
	SoftmaxRows(m)
	for i := 0; i < 2; i++ {
		sum := 0.0
		for _, v := range m.Row(i) {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("softmax out of range: %v", m.Row(i))
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("softmax row %d sums to %g", i, sum)
		}
	}
	// Uniform logits stay uniform even at extreme magnitude (stability).
	for _, v := range m.Row(1) {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Fatalf("softmax stability broken: %v", m.Row(1))
		}
	}
	if m.At(0, 2) <= m.At(0, 1) || m.At(0, 1) <= m.At(0, 0) {
		t.Fatal("softmax must preserve order")
	}
}

func TestGradKernelsAgainstRandomShapes(t *testing.T) {
	// dX = dG * W and dW += dG^T * X shapes used by the cells.
	r := rng.New(11)
	batch, out, in := 7, 12, 9
	dG := randomMatrix(r, batch, out)
	w := randomMatrix(r, out, in)
	x := randomMatrix(r, batch, in)

	dX := New(batch, in)
	GemmAcc(dX, dG, w)
	dXref := New(batch, in)
	MatMulNaive(dXref, dG, w)
	if !allClose(dX, dXref, 1e-12, 1e-12) {
		t.Fatal("dX kernel mismatch")
	}

	dW := New(out, in)
	GemmATAcc(dW, dG, x)
	dWref := New(out, in)
	MatMulNaive(dWref, transpose(dG), x)
	if !allClose(dW, dWref, 1e-12, 1e-12) {
		t.Fatal("dW kernel mismatch")
	}
}
