package tensor

import (
	"fmt"
	"testing"

	"bpar/internal/rng"
)

// subCols copies src[:, lo:hi) into a fresh matrix — the reference extraction
// the windowed kernels must agree with.
func subCols(src *Matrix, lo, hi int) *Matrix {
	out := New(src.Rows, hi-lo)
	for i := 0; i < src.Rows; i++ {
		copy(out.Data[i*out.Cols:(i+1)*out.Cols], src.Data[i*src.Cols+lo:i*src.Cols+hi])
	}
	return out
}

func TestGemmTAccColsMatchesExtractedOperand(t *testing.T) {
	r := rng.New(7)
	for _, d := range [][4]int{{1, 16, 64, 80}, {3, 64, 256, 320}, {5, 7, 9, 23}, {2, 1, 5, 3}} {
		m, k, n, kb := d[0], d[1], d[2], d[3]
		for _, lo := range []int{0, kb - k} {
			a := randomMatrix(r, m, k)
			bT := randomMatrix(r, n, kb)
			dst := randomMatrix(r, m, n)
			want := dst.Clone()
			GemmTAccCols(dst, a, bT, lo)
			GemmTAcc(want, a, subCols(bT, lo, lo+k))
			if !allClose(want, dst, 1e-12, 1e-12) {
				t.Fatalf("m=%d k=%d n=%d kb=%d lo=%d: max diff %g", m, k, n, kb, lo, want.MaxAbsDiff(dst))
			}
		}
	}
}

func TestMatMulTColsZeroesDst(t *testing.T) {
	r := rng.New(3)
	a := randomMatrix(r, 2, 8)
	bT := randomMatrix(r, 5, 20)
	dst := randomMatrix(r, 2, 5)
	want := New(2, 5)
	MatMulT(want, a, subCols(bT, 12, 20))
	MatMulTCols(dst, a, bT, 12)
	if !allClose(want, dst, 1e-12, 1e-12) {
		t.Fatalf("max diff %g", want.MaxAbsDiff(dst))
	}
}

// TestGemmTAccColsBatchBitwise is the determinism contract: batching the
// sequence through the weight-block-outer loop must produce bit-identical
// results to one kernel call per timestep.
func TestGemmTAccColsBatchBitwise(t *testing.T) {
	r := rng.New(11)
	const T, m, k, n, kb, lo = 9, 2, 48, 200, 64, 16
	bT := randomMatrix(r, n, kb)
	var dsts, seq, as []*Matrix
	for s := 0; s < T; s++ {
		a := randomMatrix(r, m, k)
		d := randomMatrix(r, m, n)
		as = append(as, a)
		dsts = append(dsts, d)
		seq = append(seq, d.Clone())
	}
	GemmTAccColsBatch(dsts, as, bT, lo)
	for s := 0; s < T; s++ {
		GemmTAccCols(seq[s], as[s], bT, lo)
		if !seq[s].Equal(dsts[s]) {
			t.Fatalf("timestep %d: batched result not bitwise equal to sequential", s)
		}
	}
}

func TestGemmAccColsMatchesExtractedOperands(t *testing.T) {
	r := rng.New(13)
	for _, d := range [][5]int{{1, 40, 16, 10, 64}, {4, 96, 32, 24, 48}, {3, 6, 4, 2, 7}} {
		m, aw, kw, n, bw := d[0], d[1], d[2], d[3], d[4]
		aLo := aw - kw - 1
		bLo := bw - n - 2
		a := randomMatrix(r, m, aw)
		bm := randomMatrix(r, kw, bw)
		dst := randomMatrix(r, m, n)
		want := dst.Clone()
		GemmAccCols(dst, a, aLo, aLo+kw, bm, bLo)
		GemmAcc(want, subCols(a, aLo, aLo+kw), subCols(bm, bLo, bLo+n))
		if !allClose(want, dst, 1e-12, 1e-12) {
			t.Fatalf("%v: max diff %g", d, want.MaxAbsDiff(dst))
		}
	}
}

func TestMatMulColsZeroesDst(t *testing.T) {
	r := rng.New(17)
	a := randomMatrix(r, 3, 12)
	bm := randomMatrix(r, 4, 9)
	dst := randomMatrix(r, 3, 6)
	want := New(3, 6)
	MatMulCols(dst, a, 2, 6, bm, 3)
	GemmAcc(want, subCols(a, 2, 6), subCols(bm, 3, 9))
	if !allClose(want, dst, 1e-12, 1e-12) {
		t.Fatalf("max diff %g", want.MaxAbsDiff(dst))
	}
}

// TestGemmAccColsBatchBitwise pins the dX determinism contract: batching the
// sequence through the weight-block-outer loop must produce bit-identical
// results to one kernel call per timestep.
func TestGemmAccColsBatchBitwise(t *testing.T) {
	r := rng.New(31)
	const T, m, aw, kw, n, bw, aLo, bLo = 9, 2, 70, 48, 24, 36, 12, 4
	bm := randomMatrix(r, kw, bw)
	var dsts, seq, as []*Matrix
	for s := 0; s < T; s++ {
		a := randomMatrix(r, m, aw)
		d := randomMatrix(r, m, n)
		as = append(as, a)
		dsts = append(dsts, d)
		seq = append(seq, d.Clone())
	}
	GemmAccColsBatch(dsts, as, aLo, aLo+kw, bm, bLo)
	for s := 0; s < T; s++ {
		GemmAccCols(seq[s], as[s], aLo, aLo+kw, bm, bLo)
		if !seq[s].Equal(dsts[s]) {
			t.Fatalf("timestep %d: batched dX accumulation not bitwise equal to sequential", s)
		}
	}
}

func TestGemmTAccDstColsMatchesWindowedReference(t *testing.T) {
	r := rng.New(37)
	for _, d := range [][4]int{{24, 18, 8, 14}, {5, 3, 2, 4}, {65, 33, 9, 20}} {
		m, k, n, dw := d[0], d[1], d[2], d[3]
		dstLo := dw - n - 1
		a := randomMatrix(r, m, k)
		bT := randomMatrix(r, n, k)
		dst := randomMatrix(r, m, dw)
		want := dst.Clone()
		GemmTAccDstCols(dst, dstLo, a, bT)
		ref := subCols(want, dstLo, dstLo+n)
		GemmTAcc(ref, a, bT)
		for i := 0; i < m; i++ {
			copy(want.Data[i*dw+dstLo:i*dw+dstLo+n], ref.Data[i*n:(i+1)*n])
		}
		if !allClose(want, dst, 1e-12, 1e-12) {
			t.Fatalf("%v: max diff %g", d, want.MaxAbsDiff(dst))
		}
	}
}

func TestTransposeStackInto(t *testing.T) {
	r := rng.New(41)
	const S, rows, d = 3, 2, 5
	var srcs []*Matrix
	for s := 0; s < S; s++ {
		srcs = append(srcs, randomMatrix(r, rows, d))
	}
	dst := New(d, S*rows)
	TransposeStackInto(dst, srcs)
	for s := 0; s < S; s++ {
		for rr := 0; rr < rows; rr++ {
			for i := 0; i < d; i++ {
				if dst.At(i, s*rows+rr) != srcs[s].At(rr, i) {
					t.Fatalf("dst[%d][%d] != srcs[%d][%d][%d]", i, s*rows+rr, s, rr, i)
				}
			}
		}
	}
}

func TestCopyColsInto(t *testing.T) {
	r := rng.New(29)
	src := randomMatrix(r, 4, 10)
	dst := randomMatrix(r, 4, 6)
	CopyColsInto(dst, src, 3)
	if !dst.Equal(subCols(src, 3, 9)) {
		t.Fatal("CopyColsInto mismatch")
	}
}

func TestColsKernelsPanicOnBadWindows(t *testing.T) {
	a := New(2, 4)
	bT := New(3, 6)
	dst := New(2, 3)
	for name, fn := range map[string]func(){
		"GemmTAccCols-lo":     func() { GemmTAccCols(dst, a, bT, 3) },
		"GemmTAccCols-neg":    func() { GemmTAccCols(dst, a, bT, -1) },
		"BatchLen":            func() { GemmTAccColsBatch([]*Matrix{dst}, nil, bT, 0) },
		"AccBatchLen":         func() { GemmAccColsBatch([]*Matrix{dst}, nil, 0, 3, bT, 0) },
		"GemmAccCols-window":  func() { GemmAccCols(dst, a, 1, 6, New(5, 3), 0) },
		"GemmTAccDstCols-win": func() { GemmTAccDstCols(dst, 2, a, New(2, 4)) },
		"TransposeStack-dims": func() { TransposeStackInto(New(4, 4), []*Matrix{New(2, 4)}) },
		"CopyColsInto-window": func() { CopyColsInto(dst, New(4, 10), 3) },
	} {
		func() {
			defer expectPanic(t, name)
			fn()
		}()
	}
}

func BenchmarkGemmTAccCols(b *testing.B) {
	const batch, h = 1, 256
	r := rng.New(1)
	hPrev := randomMatrix(r, batch, h)
	w := randomMatrix(r, 4*h, 2*h)
	gates := New(batch, 4*h)
	b.SetBytes(int64(8 * (batch*h + 4*h*h + batch*4*h)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmTAccCols(gates, hPrev, w, h)
	}
}

func BenchmarkProjectionKernels(b *testing.B) {
	const T, batch, in, h = 8, 1, 256, 256
	r := rng.New(1)
	w := randomMatrix(r, 4*h, in+h)
	var xs, pres []*Matrix
	for s := 0; s < T; s++ {
		xs = append(xs, randomMatrix(r, batch, in))
		pres = append(pres, New(batch, 4*h))
	}
	b.Run("per-step", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for s := 0; s < T; s++ {
				MatMulTCols(pres[s], xs[s], w, 0)
			}
		}
	})
	b.Run(fmt.Sprintf("batched-%d", T), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for s := range pres {
				pres[s].Zero()
			}
			GemmTAccColsBatch(pres, xs, w, 0)
		}
	})
}
