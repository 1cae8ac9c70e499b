package tensor

import (
	"fmt"
	"math"
	"testing"

	"bpar/internal/rng"
)

// setVecKernels switches the vector kernels on or off until the test ends.
// Without AVX "on" leaves them off: the Go kernels are then the only path.
func setVecKernels(tb testing.TB, on bool) {
	old := vecKernels
	vecKernels = on && hasAVX()
	tb.Cleanup(func() { vecKernels = old })
}

// specialMatrix is randomMatrix with runs of eight zeros, which cover at
// least one whole zero-skip quad wherever they start, and ±0; with specials
// it also scatters ±Inf and NaN.
func specialMatrix(r *rng.RNG, rows, cols int, specials bool) *Matrix {
	m := randomMatrix(r, rows, cols)
	for i := range m.Data {
		switch u := r.Intn(256); {
		case u < 4:
			clear(m.Data[i:min(i+8, len(m.Data))])
		case u < 8:
			m.Data[i] = math.Copysign(0, -1)
		case specials && u == 8:
			m.Data[i] = math.Inf(1)
		case specials && u == 9:
			m.Data[i] = math.Inf(-1)
		case specials && u == 10:
			m.Data[i] = math.NaN()
		}
	}
	return m
}

// sameBits reports whether a and b hold the same bits, counting any two
// NaNs as equal.
func sameBits(a, b *Matrix) bool {
	for i, x := range a.Data {
		y := b.Data[i]
		if math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
			return false
		}
	}
	return true
}

// TestVecKernelsMatchGo runs every float64 entry point with a vector path
// with the vector kernels off and on, over random shapes, and requires the
// same bits. m covers 1..9 rows (row lanes plus leftover rows), the batches
// 1..9 operands (operand lanes plus leftover operands), and k and n take
// every remainder mod 4; k reaches past laneChunk, so the lane sums carry
// across chunks, and n past blockN.
func TestVecKernelsMatchGo(t *testing.T) {
	if !hasAVX() {
		t.Skip("no AVX: the Go kernels are the only path")
	}
	setVecKernels(t, true)
	r := rng.New(41)
	for trial := range 128 {
		m, ops, specials := 1+r.Intn(9), 1+r.Intn(9), trial%2 == 1
		k, n := 4*r.Intn(36)+trial%4, 4*r.Intn(36)+trial/4%4
		lo, dLo := r.Intn(3), r.Intn(3)
		kb := lo + k + r.Intn(3)
		mat := func(rows, cols int) *Matrix { return specialMatrix(r, rows, cols, specials) }
		mats := func(count, rows, cols int) []*Matrix {
			ms := make([]*Matrix, count)
			for s := range ms {
				ms[s] = mat(rows, cols)
			}
			return ms
		}
		a, bT, bTk, g, w := mat(m, k), mat(n, kb), mat(n, k), mat(m, lo+k+1), mat(k, lo+n+2)
		as, rows1, gs := mats(ops, m, k), mats(ops, 1, k), mats(ops, m, lo+k+1)
		pp := NewPackedPanel(bT, lo, k)
		check := func(name string, dsts []*Matrix, run func(ds []*Matrix)) {
			t.Helper()
			if s := vecDiffersFromGo(dsts, run); s >= 0 {
				t.Fatalf("trial %d %s (m=%d k=%d n=%d ops=%d) operand %d: vector bits differ from Go",
					trial, name, m, k, n, ops, s)
			}
		}
		one := func(d *Matrix) []*Matrix { return []*Matrix{d} }
		check("GemmTAccCols", one(mat(m, n)), func(ds []*Matrix) { GemmTAccCols(ds[0], a, bT, lo) })
		check("GemmTAccColsBatch", mats(ops, m, n), func(ds []*Matrix) { GemmTAccColsBatch(ds, as, bT, lo) })
		check("GemmTAccColsBatch/M1", mats(ops, 1, n), func(ds []*Matrix) { GemmTAccColsBatch(ds, rows1, bT, lo) })
		check("GemmTAccColsPacked", one(mat(m, n)), func(ds []*Matrix) { GemmTAccColsPacked(ds[0], a, pp) })
		check("GemmTAccColsPackedBatch/M1", mats(ops, 1, n), func(ds []*Matrix) { GemmTAccColsPackedBatch(ds, rows1, pp) })
		check("GemmTAccDstCols", one(mat(m, dLo+n+1)), func(ds []*Matrix) { GemmTAccDstCols(ds[0], dLo, a, bTk) })
		check("GemmAccCols", one(mat(m, n)), func(ds []*Matrix) { GemmAccCols(ds[0], g, lo, lo+k, w, lo) })
		check("GemmAccColsBatch", mats(ops, m, n), func(ds []*Matrix) { GemmAccColsBatch(ds, gs, lo, lo+k, w, lo) })
	}
}

// vecDiffersFromGo runs run on clones of dsts with the vector kernels off
// and then on, and returns the first operand whose bits differ, or -1.
func vecDiffersFromGo(dsts []*Matrix, run func(ds []*Matrix)) int {
	var got [2][]*Matrix
	for v := range got {
		vecKernels = v == 1
		for _, d := range dsts {
			got[v] = append(got[v], d.Clone())
		}
		run(got[v])
	}
	for s := range dsts {
		if !sameBits(got[0][s], got[1][s]) {
			return s
		}
	}
	return -1
}

// TestDotColsMatchGo checks GemmTAccCols on m = 1..3 rows, the rows that
// dotCols runs one column per lane (the M=1 chain of a batch-1 step, and the
// rows left over after the four-row lanes), at shapes the random trials
// reach rarely: the Table III window (lo > 0, kb ≫ k), n across the blockN
// panel boundary with n%8 ≠ 0, and k = 0, 1 and odd. Each runs without and
// with ±Inf and NaN, which swamp most sums at k = 256.
func TestDotColsMatchGo(t *testing.T) {
	if !hasAVX() {
		t.Skip("no AVX: the Go kernels are the only path")
	}
	setVecKernels(t, true)
	r := rng.New(47)
	for _, sh := range []struct{ k, n, kb, lo int }{
		{256, 1024, 512, 256}, // Table III: Wh inside the fused [4H x In+H] weights
		{33, blockN + 11, 41, 5},
		{0, 27, 3, 2},
		{1, 27, 3, 2},
		{7, 2*blockN + 3, 70, 60},
		{129, 13, 300, 100},
	} {
		for m := 1; m <= 3; m++ {
			for _, specials := range []bool{false, true} {
				a, bT := specialMatrix(r, m, sh.k, specials), specialMatrix(r, sh.n, sh.kb, specials)
				d := specialMatrix(r, m, sh.n, specials)
				if vecDiffersFromGo([]*Matrix{d}, func(ds []*Matrix) { GemmTAccCols(ds[0], a, bT, sh.lo) }) >= 0 {
					t.Fatalf("GemmTAccCols/M1 (m=%d k=%d n=%d kb=%d lo=%d specials=%v): vector bits differ from Go",
						m, sh.k, sh.n, sh.kb, sh.lo, specials)
				}
			}
		}
	}
}

// gemmBenchShape is one named shape of a benchmarked GEMM family; each
// benchmark's body says what its rows, gates, k and t are.
type gemmBenchShape struct {
	name              string
	rows, gates, k, t int
}

// gemmBenchShapes are the paper's two training shapes: Table III (LSTM
// 256/256, batch 1, so every projection and dX operand is one row of an
// 8-step tile, and dW sums over T=100 steps) and Table IV (GRU 256/256,
// 8-row mini-batches, dW over T*rows = 160 terms).
var gemmBenchShapes = []gemmBenchShape{
	{"tableIII", 1, 4 * 256, 100, 8},
	{"tableIV", 8, 3 * 256, 160, 8},
}

// benchVecAndGo runs body as a "go" and a "vec" sub-benchmark per shape and
// reports GFLOP/s from the flops one call performs.
func benchVecAndGo(b *testing.B, shapes []gemmBenchShape, flops func(rows, gates, k, t int) int, body func(b *testing.B, rows, gates, k, t int)) {
	for _, sh := range shapes {
		for _, path := range []string{"go", "vec"} {
			b.Run(fmt.Sprintf("%s/%s", sh.name, path), func(b *testing.B) {
				if path == "vec" && !hasAVX() {
					b.Skip("no AVX")
				}
				setVecKernels(b, path == "vec")
				body(b, sh.rows, sh.gates, sh.k, sh.t)
				b.ReportMetric(float64(flops(sh.rows, sh.gates, sh.k, sh.t))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

// BenchmarkGemmProj is the projection: t operand tiles times the input half
// of the fused weights (gemmTColsPanel, operand or row lanes).
func BenchmarkGemmProj(b *testing.B) {
	benchVecAndGo(b, gemmBenchShapes, func(rows, gates, k, t int) int { return 2 * t * rows * 256 * gates },
		func(b *testing.B, rows, gates, _, t int) {
			r := rng.New(1)
			w := randomMatrix(r, gates, 512)
			var dsts, xs []*Matrix
			for range t {
				dsts, xs = append(dsts, New(rows, gates)), append(xs, randomMatrix(r, rows, 256))
			}
			for b.Loop() {
				GemmTAccColsBatch(dsts, xs, w, 0)
			}
		})
}

// BenchmarkGemmDW is the whole-sequence weight gradient: gate gradients
// [gates x k] times inputs [256 x k] (gemmTColsPanel over GemmTAccDstCols,
// row lanes).
func BenchmarkGemmDW(b *testing.B) {
	benchVecAndGo(b, gemmBenchShapes, func(_, gates, k, _ int) int { return 2 * gates * k * 256 },
		func(b *testing.B, _, gates, k, _ int) {
			r := rng.New(2)
			dw, p, xT := New(gates, 512), randomMatrix(r, gates, k), randomMatrix(r, 256, k)
			for b.Loop() {
				GemmTAccDstCols(dw, 0, p, xT)
			}
		})
}

// BenchmarkGemmDX is the input gradient: t gate-gradient tiles times the
// input half of the weights (gemmAColsBlock, lanes over columns).
func BenchmarkGemmDX(b *testing.B) {
	benchVecAndGo(b, gemmBenchShapes, func(rows, gates, _, t int) int { return 2 * t * rows * gates * 256 },
		func(b *testing.B, rows, gates, _, t int) {
			r := rng.New(3)
			w := randomMatrix(r, gates, 512)
			var dsts, gs []*Matrix
			for range t {
				dsts, gs = append(dsts, New(rows, 256)), append(gs, randomMatrix(r, rows, gates))
			}
			for b.Loop() {
				GemmAccColsBatch(dsts, gs, 0, gates, w, 0)
			}
		})
}

// BenchmarkGemmChain is the recurrent chain of a batch-1 step: hPrev [1 x H]
// times the recurrent half Wh of the fused [4H x 2H] weights (gemmTColsPanel,
// dotCols), cycling over t weight matrices: one hot Wh at Table III's
// H = 256, the 12 Wh of its 6-layer bidirectional model, and H = 128 and
// train_fine_h32_t100's H = 32, whose Wh sit in L2.
func BenchmarkGemmChain(b *testing.B) {
	shapes := []gemmBenchShape{
		{"tableIII", 1, 4 * 256, 256, 1},
		{"tableIII-12w", 1, 4 * 256, 256, 12},
		{"h128", 1, 4 * 128, 128, 1},
		{"h32", 1, 4 * 32, 32, 1},
	}
	benchVecAndGo(b, shapes, func(rows, gates, k, t int) int { return 2 * t * rows * k * gates },
		func(b *testing.B, rows, gates, k, t int) {
			r := rng.New(4)
			ws := make([]*Matrix, t)
			for i := range ws {
				ws[i] = randomMatrix(r, gates, 2*k)
			}
			d, h := New(rows, gates), randomMatrix(r, rows, k)
			for b.Loop() {
				for _, w := range ws {
					GemmTAccCols(d, h, w, k)
				}
			}
		})
}
