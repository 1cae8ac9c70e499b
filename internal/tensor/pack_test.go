package tensor

import (
	"testing"

	"bpar/internal/rng"
)

// toF64 widens a float32 matrix for comparison against float64 references.
func toF64(m *Mat[float32]) *Matrix {
	out := New(m.Rows, m.Cols)
	ConvertInto(out, m)
	return out
}

// packedShapes stresses the quad structure: n divisible by 4, n with
// remainder columns, n < 4 (remainder only), and windows at lo = 0 and
// lo > 0, with n crossing the blockN boundary.
var packedShapes = [][4]int{
	{1, 16, 64, 80},  // m, k, n, kb
	{3, 48, 200, 64}, // kb < n forces lo+k <= kb windows; n % 4 == 0, n > blockN
	{2, 7, 9, 23},    // odd everything: remainder columns
	{4, 5, 3, 12},    // n < 4: the un-interleaved tail alone
	{1, 1, 1, 1},     // degenerate
}

func packedWindows(k, kb int) []int {
	if kb == k {
		return []int{0}
	}
	return []int{0, kb - k}
}

// packedCase checks the packed kernels against their unpacked originals for
// one dtype. Packing is a pure layout change, so equality is bitwise.
func packedCase[E Elt](t *testing.T) {
	t.Helper()
	r := rng.New(7)
	for _, d := range packedShapes {
		m, k, n, kb := d[0], d[1], d[2], d[3]
		for _, lo := range packedWindows(k, kb) {
			a := ConvertedOf[E](randomMatrix(r, m, k))
			bT := ConvertedOf[E](randomMatrix(r, n, kb))
			dst := ConvertedOf[E](randomMatrix(r, m, n))
			want := dst.Clone()
			pp := NewPackedPanel(bT, lo, k)
			GemmTAccColsPacked(dst, a, pp)
			GemmTAccCols(want, a, bT, lo)
			if !want.Equal(dst) {
				t.Fatalf("m=%d k=%d n=%d kb=%d lo=%d: packed result not bitwise equal (max diff %g)",
					m, k, n, kb, lo, want.MaxAbsDiff(dst))
			}
		}
	}
}

func TestGemmTAccColsPackedBitwiseF64(t *testing.T) {
	packedCase[float64](t)
}

func TestGemmTAccColsPackedBitwiseF32(t *testing.T) {
	packedCase[float32](t)
}

func TestMatMulTColsPackedBitwise(t *testing.T) {
	r := rng.New(11)
	const m, k, n, kb, lo = 2, 48, 70, 64, 16
	a := randomMatrix(r, m, k)
	bT := randomMatrix(r, n, kb)
	dst := randomMatrix(r, m, n)
	want := New(m, n)
	pp := NewPackedPanel(bT, lo, k)
	MatMulTColsPacked(dst, a, pp)
	MatMulTCols(want, a, bT, lo)
	if !want.Equal(dst) {
		t.Fatalf("max diff %g", want.MaxAbsDiff(dst))
	}
}

// TestGemmTAccColsPackedBatchBitwise pins the batched packed kernel against
// both per-timestep packed calls and the unpacked batch kernel: all three
// must agree bitwise because they share the block traversal.
func TestGemmTAccColsPackedBatchBitwise(t *testing.T) {
	r := rng.New(13)
	const T, m, k, n, kb, lo = 9, 2, 48, 200, 64, 16
	bT := randomMatrix(r, n, kb)
	pp := NewPackedPanel(bT, lo, k)
	var as, batch, seq, unpacked []*Matrix
	for s := 0; s < T; s++ {
		a := randomMatrix(r, m, k)
		d := randomMatrix(r, m, n)
		as = append(as, a)
		batch = append(batch, d)
		seq = append(seq, d.Clone())
		unpacked = append(unpacked, d.Clone())
	}
	GemmTAccColsPackedBatch(batch, as, pp)
	GemmTAccColsBatch(unpacked, as, bT, lo)
	for s := 0; s < T; s++ {
		GemmTAccColsPacked(seq[s], as[s], pp)
		if !seq[s].Equal(batch[s]) {
			t.Fatalf("timestep %d: batched packed not bitwise equal to sequential packed", s)
		}
		if !unpacked[s].Equal(batch[s]) {
			t.Fatalf("timestep %d: packed batch not bitwise equal to unpacked batch", s)
		}
	}
}

// TestPackedPanelRepack pins the cache-invalidation contract: a panel holds a
// copy, so results go stale when the source weights change and recover after
// Repack — through the same panel pointer, as replay templates require.
func TestPackedPanelRepack(t *testing.T) {
	r := rng.New(17)
	const m, k, n, kb, lo = 2, 12, 10, 20, 4
	a := randomMatrix(r, m, k)
	bT := randomMatrix(r, n, kb)
	pp := NewPackedPanel(bT, lo, k)
	for i := range bT.Data {
		bT.Data[i] *= 1.5
	}
	stale, fresh := New(m, n), New(m, n)
	MatMulTColsPacked(stale, a, pp)
	MatMulTCols(fresh, a, bT, lo)
	if stale.Equal(fresh) {
		t.Fatal("panel tracked a weight update without Repack")
	}
	pp.Repack()
	repacked := New(m, n)
	MatMulTColsPacked(repacked, a, pp)
	if !repacked.Equal(fresh) {
		t.Fatal("Repack did not refresh the packed copy")
	}
}

func TestPackedPanelPanics(t *testing.T) {
	bT := New(6, 10)
	pp := NewPackedPanel(bT, 2, 4)
	for name, fn := range map[string]func(){
		"NewPackedPanel-window": func() { NewPackedPanel(bT, 8, 4) },
		"NewPackedPanel-neg":    func() { NewPackedPanel(bT, -1, 4) },
		"Packed-shape":          func() { GemmTAccColsPacked(New(2, 6), New(2, 5), pp) },
		"Packed-cols":           func() { GemmTAccColsPacked(New(2, 5), New(2, 4), pp) },
		"PackedBatch-len":       func() { GemmTAccColsPackedBatch([]*Matrix{New(2, 6)}, nil, pp) },
	} {
		func() {
			defer expectPanic(t, name)
			fn()
		}()
	}
}

// benchPacked compares the packed and strided forms of the recurrent
// projection at the Table III serving shape (batch 1, hidden 256, fused
// 4H x 2H weight, reading the H-offset window) — the kernel-level basis of
// the >= 1.15x packed-f64 acceptance bar.
func benchPacked[E Elt](b *testing.B, T int) {
	const batch, h = 1, 256
	r := rng.New(1)
	w := ConvertedOf[E](randomMatrix(r, 4*h, 2*h))
	pp := NewPackedPanel(w, h, h)
	var hs, pres []*Mat[E]
	for s := 0; s < T; s++ {
		hs = append(hs, ConvertedOf[E](randomMatrix(r, batch, h)))
		pres = append(pres, NewOf[E](batch, 4*h))
	}
	elem := int64(DTypeOf[E]().Size())
	b.Run("strided", func(b *testing.B) {
		b.SetBytes(elem * int64(T) * int64(batch*h+4*h*h+batch*4*h))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for s := 0; s < T; s++ {
				GemmTAccCols(pres[s], hs[s], w, h)
			}
		}
	})
	b.Run("packed", func(b *testing.B) {
		b.SetBytes(elem * int64(T) * int64(batch*h+4*h*h+batch*4*h))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for s := 0; s < T; s++ {
				GemmTAccColsPacked(pres[s], hs[s], pp)
			}
		}
	})
	b.Run("packed-batch", func(b *testing.B) {
		b.SetBytes(elem * int64(T) * int64(batch*h+4*h*h+batch*4*h))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			GemmTAccColsPackedBatch(pres, hs, pp)
		}
	})
}

func BenchmarkPackedColsF64(b *testing.B) { benchPacked[float64](b, 8) }
func BenchmarkPackedColsF32(b *testing.B) { benchPacked[float32](b, 8) }
