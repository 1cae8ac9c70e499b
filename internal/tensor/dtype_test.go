package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"bpar/internal/rng"
)

// f32Tol is the documented tolerance band for the float32 kernel family
// against a float64 reference, as a function of reduction depth k. Inputs are
// rounded to float32 (relative error <= eps32 = 2^-24) and every product and
// partial sum rounds again, so for unit-scale operands the absolute error of
// a depth-k dot is bounded by ~2k*eps32 to first order. The factor 8 covers
// higher-order terms and accumulation reordering with wide margin while
// staying tight enough to catch a float64-truncation bug (which would show
// errors near eps32*k*1e8).
func f32Tol(k int) float64 {
	const eps32 = 1.0 / (1 << 24)
	return 8 * float64(k+1) * eps32
}

// naiveGemmT computes dst += a * bT^T in plain float64 triple loops: the
// reference the f32 mirrors are banded against.
func naiveGemmT(dst, a, bT *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < bT.Rows; j++ {
			s := 0.0
			for p := 0; p < a.Cols; p++ {
				s += a.At(i, p) * bT.At(j, p)
			}
			dst.Data[i*dst.Cols+j] += s
		}
	}
}

// withinBand reports whether every element of the f32 result got (widened)
// is within the band of the f64 reference want.
func withinBand(t *testing.T, want *Matrix, got *Mat[float32], k int) bool {
	t.Helper()
	tol := f32Tol(k)
	for i, w := range want.Data {
		if math.Abs(w-float64(got.Data[i])) > tol {
			t.Logf("elem %d: f64 %g vs f32 %g, band %g", i, w, got.Data[i], tol)
			return false
		}
	}
	return true
}

func TestQuickF32GemmTAccWithinBand(t *testing.T) {
	f := func(seed uint64, ms, ks, ns uint8) bool {
		m, k := shapeFromSeeds(ms, ks)
		n, _ := shapeFromSeeds(ns, 0)
		r := rng.New(seed)
		a := randomMatrix(r, m, k)
		bT := randomMatrix(r, n, k)
		dst := randomMatrix(r, m, n)
		dst32 := ConvertedOf[float32](dst)
		GemmTAcc(dst32, ConvertedOf[float32](a), ConvertedOf[float32](bT))
		naiveGemmT(dst, a, bT)
		return withinBand(t, dst, dst32, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickF32MatMulWithinBand(t *testing.T) {
	f := func(seed uint64, ms, ks, ns uint8) bool {
		m, k := shapeFromSeeds(ms, ks)
		n, _ := shapeFromSeeds(ns, 0)
		r := rng.New(seed)
		a := randomMatrix(r, m, k)
		b := randomMatrix(r, k, n)
		want := New(m, n)
		MatMulNaive(want, a, b)
		got := NewOf[float32](m, n)
		GemmAcc(got, ConvertedOf[float32](a), ConvertedOf[float32](b))
		return withinBand(t, want, got, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickF32ColsWindowWithinBand(t *testing.T) {
	// The windowed projection: dst += a * bT[:, lo:lo+k)^T, with lo drawn
	// from the seed so both aligned and offset windows are exercised.
	f := func(seed uint64, ms, ks, ns, pad uint8) bool {
		m, k := shapeFromSeeds(ms, ks)
		n, _ := shapeFromSeeds(ns, 0)
		lo := int(pad % 8)
		r := rng.New(seed)
		a := randomMatrix(r, m, k)
		bT := randomMatrix(r, n, lo+k+3)
		dst := randomMatrix(r, m, n)
		dst32 := ConvertedOf[float32](dst)
		GemmTAccCols(dst32, ConvertedOf[float32](a), ConvertedOf[float32](bT), lo)
		naiveGemmT(dst, a, subCols(bT, lo, lo+k))
		return withinBand(t, dst, dst32, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickF32PackedWithinBand(t *testing.T) {
	f := func(seed uint64, ms, ks, ns, pad uint8) bool {
		m, k := shapeFromSeeds(ms, ks)
		n, _ := shapeFromSeeds(ns, 0)
		lo := int(pad % 8)
		r := rng.New(seed)
		a := randomMatrix(r, m, k)
		bT := randomMatrix(r, n, lo+k+1)
		dst := randomMatrix(r, m, n)
		dst32 := ConvertedOf[float32](dst)
		pp := NewPackedPanel(ConvertedOf[float32](bT), lo, k)
		GemmTAccColsPacked(dst32, ConvertedOf[float32](a), pp)
		naiveGemmT(dst, a, subCols(bT, lo, lo+k))
		return withinBand(t, dst, dst32, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickF32GemmATAccWithinBand(t *testing.T) {
	f := func(seed uint64, ks, ms, ns uint8) bool {
		k, m := shapeFromSeeds(ks, ms)
		n, _ := shapeFromSeeds(ns, 0)
		r := rng.New(seed)
		a := randomMatrix(r, k, m)
		b := randomMatrix(r, k, n)
		dst := randomMatrix(r, m, n)
		dst32 := ConvertedOf[float32](dst)
		GemmATAcc(dst32, ConvertedOf[float32](a), ConvertedOf[float32](b))
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for p := 0; p < k; p++ {
					s += a.At(p, i) * b.At(p, j)
				}
				dst.Data[i*n+j] += s
			}
		}
		return withinBand(t, dst, dst32, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickF32SoftmaxWithinBand(t *testing.T) {
	// Softmax divides by a sum over cols terms; the quotient keeps the
	// absolute error within the depth-cols band.
	f := func(seed uint64, rs, cs uint8) bool {
		rows, cols := shapeFromSeeds(rs, cs)
		m := randomMatrix(rng.New(seed), rows, cols)
		ScaleInPlace(m, 5)
		m32 := ConvertedOf[float32](m)
		SoftmaxRows(m)
		SoftmaxRows(m32)
		return withinBand(t, m, m32, cols)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDTypeParseAndProperties(t *testing.T) {
	for _, s := range []string{"f64", "float64", "fp64", "double"} {
		d, err := ParseDType(s)
		if err != nil || d != F64 {
			t.Fatalf("ParseDType(%q) = %v, %v", s, d, err)
		}
	}
	for _, s := range []string{"f32", "float32", "fp32", "single"} {
		d, err := ParseDType(s)
		if err != nil || d != F32 {
			t.Fatalf("ParseDType(%q) = %v, %v", s, d, err)
		}
	}
	if _, err := ParseDType("bf16"); err == nil {
		t.Fatal("ParseDType accepted an unsupported dtype")
	}
	if F64.Size() != 8 || F32.Size() != 4 {
		t.Fatal("dtype sizes wrong")
	}
	if DTypeOf[float64]() != F64 || DTypeOf[float32]() != F32 {
		t.Fatal("DTypeOf wrong")
	}
	if F64.String() != "f64" || F32.String() != "f32" {
		t.Fatal("dtype names wrong")
	}
}

func TestConvertRoundTrip(t *testing.T) {
	r := rng.New(21)
	m := randomMatrix(r, 5, 7)
	m32 := ConvertedOf[float32](m)
	back := New(5, 7)
	ConvertInto(back, m32)
	// f64 -> f32 -> f64 must equal rounding each element to float32 once.
	for i, v := range m.Data {
		if back.Data[i] != float64(float32(v)) {
			t.Fatalf("elem %d: round trip %g != single rounding %g", i, back.Data[i], float64(float32(v)))
		}
	}
	// Same-dtype conversion is a copy.
	same := New(5, 7)
	ConvertInto(same, m)
	if !same.Equal(m) {
		t.Fatal("f64->f64 ConvertInto is not a copy")
	}
}
