package tensor

import (
	"math"
	"testing"

	"bpar/internal/rng"
)

func randomMatrix(r *rng.RNG, rows, cols int) *Matrix {
	m := New(rows, cols)
	r.FillUniform(m.Data, -1, 1)
	return m
}

// MatMulNaive is the reference triple loop used by tests to validate the
// blocked kernels.
func MatMulNaive(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("tensor: MatMulNaive shape mismatch")
	}
	guardWRR(dst, a, b)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for p := 0; p < a.Cols; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			dst.Set(i, j, s)
		}
	}
}

// fromSlice wraps data (length rows*cols) as a matrix without copying.
func fromSlice(rows, cols int, data []float64) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// transpose returns a fresh transpose of m — TransposeStackInto over a
// single operand — the reference the transposed-operand GEMMs are checked
// against.
func transpose[E Elt](m *Mat[E]) *Mat[E] {
	t := NewOf[E](m.Cols, m.Rows)
	TransposeStackInto(t, []*Mat[E]{m})
	return t
}

// allClose reports element-wise closeness within absolute tolerance atol or
// relative tolerance rtol, whichever is looser; false on a shape mismatch.
func allClose[E Elt](a, b *Mat[E], rtol, atol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		x, y := float64(v), float64(b.Data[i])
		if math.Abs(x-y) > atol+rtol*math.Max(math.Abs(x), math.Abs(y)) {
			return false
		}
	}
	return true
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %+v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New must zero storage")
		}
	}
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("At/Set roundtrip failed")
	}
	row := m.Row(1)
	if row[2] != 7 {
		t.Fatal("Row must alias storage")
	}
	row[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("Row mutation must be visible")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := fromSlice(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Data[0] = 42
	if m.Data[0] != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestCopyFromShapeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "CopyFrom")
	New(2, 2).CopyFrom(New(2, 3))
}

func TestEqualAndAllClose(t *testing.T) {
	a := fromSlice(1, 3, []float64{1, 2, 3})
	b := fromSlice(1, 3, []float64{1, 2, 3})
	if !a.Equal(b) {
		t.Fatal("expected equal")
	}
	b.Data[2] += 1e-9
	if a.Equal(b) {
		t.Fatal("expected not exactly equal")
	}
	if !allClose(a, b, 1e-6, 1e-6) {
		t.Fatal("expected close")
	}
	if allClose(a, New(1, 2), 1, 1) {
		t.Fatal("shape mismatch must not be close")
	}
}

func TestTransposeSmall(t *testing.T) {
	m := fromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := transpose(m)
	want := fromSlice(3, 2, []float64{1, 4, 2, 5, 3, 6})
	if !tr.Equal(want) {
		t.Fatalf("got %v want %v", tr, want)
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(1)
	for _, dims := range [][2]int{{1, 1}, {3, 5}, {33, 65}, {70, 17}} {
		m := randomMatrix(r, dims[0], dims[1])
		if !transpose(transpose(m)).Equal(m) {
			t.Fatalf("transpose not involutive for %dx%d", dims[0], dims[1])
		}
	}
}

func TestConcatSplitRoundtrip(t *testing.T) {
	r := rng.New(2)
	a := randomMatrix(r, 4, 3)
	b := randomMatrix(r, 4, 5)
	cat := New(4, 8)
	ConcatCols(cat, a, b)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			if cat.At(i, j) != a.At(i, j) {
				t.Fatal("left block mismatch")
			}
		}
		for j := 0; j < 5; j++ {
			if cat.At(i, 3+j) != b.At(i, j) {
				t.Fatal("right block mismatch")
			}
		}
	}
	a2, b2 := New(4, 3), New(4, 5)
	SplitCols(cat, a2, b2)
	if !a2.Equal(a) || !b2.Equal(b) {
		t.Fatal("SplitCols must invert ConcatCols")
	}
}

func TestSliceRowsAliases(t *testing.T) {
	m := randomMatrix(rng.New(3), 6, 4)
	s := m.SliceRows(2, 5)
	if s.Rows != 3 || s.Cols != 4 {
		t.Fatalf("bad slice shape %dx%d", s.Rows, s.Cols)
	}
	s.Set(0, 0, 99)
	if m.At(2, 0) != 99 {
		t.Fatal("SliceRows must alias parent")
	}
}

func TestSliceRowsBoundsPanic(t *testing.T) {
	defer expectPanic(t, "SliceRows")
	New(3, 3).SliceRows(2, 5)
}

func TestMatMulAgainstNaive(t *testing.T) {
	r := rng.New(4)
	cases := [][3]int{{1, 1, 1}, {2, 3, 4}, {17, 33, 9}, {64, 64, 64}, {65, 70, 67}, {128, 5, 200}}
	for _, c := range cases {
		m, k, n := c[0], c[1], c[2]
		a := randomMatrix(r, m, k)
		b := randomMatrix(r, k, n)
		got := New(m, n)
		want := New(m, n)
		GemmAcc(got, a, b)
		MatMulNaive(want, a, b)
		if !allClose(got, want, 1e-12, 1e-12) {
			t.Fatalf("GemmAcc mismatch for %dx%dx%d: max diff %g", m, k, n, got.MaxAbsDiff(want))
		}
	}
}

func TestMatMulTMatchesExplicitTranspose(t *testing.T) {
	r := rng.New(5)
	a := randomMatrix(r, 13, 29)
	bT := randomMatrix(r, 17, 29) // b = bT^T is 29x17
	got := New(13, 17)
	MatMulT(got, a, bT)
	want := New(13, 17)
	GemmAcc(want, a, transpose(bT))
	if !allClose(got, want, 1e-12, 1e-12) {
		t.Fatalf("MatMulT mismatch: %g", got.MaxAbsDiff(want))
	}
}

func TestGemmATAccMatchesExplicitTranspose(t *testing.T) {
	r := rng.New(6)
	a := randomMatrix(r, 21, 8) // a^T is 8x21
	b := randomMatrix(r, 21, 11)
	got := New(8, 11)
	for i := range got.Data {
		got.Data[i] = 0.5
	}
	GemmATAcc(got, a, b)
	want := New(8, 11)
	GemmAcc(want, transpose(a), b)
	for i := range want.Data {
		want.Data[i] += 0.5
	}
	if !allClose(got, want, 1e-12, 1e-12) {
		t.Fatalf("GemmATAcc mismatch: %g", got.MaxAbsDiff(want))
	}
}

func TestGemmAccAccumulates(t *testing.T) {
	r := rng.New(7)
	a := randomMatrix(r, 5, 6)
	b := randomMatrix(r, 6, 7)
	dst := New(5, 7)
	GemmAcc(dst, a, b)
	once := dst.Clone()
	GemmAcc(dst, a, b)
	twice := New(5, 7)
	Scale(twice, 2, once)
	if !allClose(dst, twice, 1e-12, 1e-12) {
		t.Fatal("GemmAcc must accumulate")
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer expectPanic(t, "GemmAcc")
	GemmAcc(New(2, 2), New(2, 3), New(4, 2))
}

func TestAxpy(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	y := []float64{1, 1, 1, 1, 1}
	Axpy(2, a, y)
	want := []float64{3, 5, 7, 9, 11}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy got %v", y)
		}
	}
}

func expectPanic(t *testing.T, name string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("%s: expected panic", name)
	}
}
