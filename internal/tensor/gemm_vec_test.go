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

// specialMatrix is randomMatrix at E with runs of eight zeros, which cover
// at least one whole zero-skip quad wherever they start, and ±0; with
// specials it also scatters ±Inf and NaN.
func specialMatrix[E Elt](r *rng.RNG, rows, cols int, specials bool) *Mat[E] {
	m := ConvertedOf[E](randomMatrix(r, rows, cols))
	for i := range m.Data {
		switch u := r.Intn(256); {
		case u < 4:
			clear(m.Data[i:min(i+8, len(m.Data))])
		case u < 8:
			m.Data[i] = E(math.Copysign(0, -1))
		case specials && u == 8:
			m.Data[i] = E(math.Inf(1))
		case specials && u == 9:
			m.Data[i] = E(math.Inf(-1))
		case specials && u == 10:
			m.Data[i] = E(math.NaN())
		}
	}
	return m
}

// sameBits reports whether a and b hold the same bits, counting any two
// NaNs as equal. Widening to float64 keeps every float32's bits apart.
func sameBits[E Elt](a, b *Mat[E]) bool {
	for i, x := range a.Data {
		x, y := float64(x), float64(b.Data[i])
		if math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
			return false
		}
	}
	return true
}

// TestVecKernelsMatchGo runs every entry point with a vector path at both
// dtypes with the vector kernels off and on, over random shapes, and
// requires the same bits. m covers 1..9 rows (row lanes plus leftover rows),
// the batches 1..9 operands (operand lanes plus leftover operands), and k
// and n take every remainder mod 4; k reaches past laneChunk, so the lane
// sums carry across chunks, and n past blockN. The float32 axpy form has no
// vector kernel, so there both paths are Go.
func TestVecKernelsMatchGo(t *testing.T) {
	if !hasAVX() {
		t.Skip("no AVX: the Go kernels are the only path")
	}
	t.Run("f64", vecKernelsMatchGo[float64])
	t.Run("f32", vecKernelsMatchGo[float32])
}

func vecKernelsMatchGo[E Elt](t *testing.T) {
	setVecKernels(t, true)
	r := rng.New(41)
	for trial := range 128 {
		m, ops, specials := 1+r.Intn(9), 1+r.Intn(9), trial%2 == 1
		k, n := 4*r.Intn(36)+trial%4, 4*r.Intn(36)+trial/4%4
		lo, dLo := r.Intn(3), r.Intn(3)
		kb := lo + k + r.Intn(3)
		mat := func(rows, cols int) *Mat[E] { return specialMatrix[E](r, rows, cols, specials) }
		mats := func(count, rows, cols int) []*Mat[E] {
			ms := make([]*Mat[E], count)
			for s := range ms {
				ms[s] = mat(rows, cols)
			}
			return ms
		}
		a, bT, bTk, g, w := mat(m, k), mat(n, kb), mat(n, k), mat(m, lo+k+1), mat(k, lo+n+2)
		as, rows1, gs := mats(ops, m, k), mats(ops, 1, k), mats(ops, m, lo+k+1)
		pp := NewPackedPanel(bT, lo, k)
		check := func(name string, dsts []*Mat[E], run func(ds []*Mat[E])) {
			t.Helper()
			if s := vecDiffersFromGo(dsts, run); s >= 0 {
				t.Fatalf("trial %d %s (m=%d k=%d n=%d ops=%d) operand %d: vector bits differ from Go",
					trial, name, m, k, n, ops, s)
			}
		}
		one := func(d *Mat[E]) []*Mat[E] { return []*Mat[E]{d} }
		check("GemmTAccCols", one(mat(m, n)), func(ds []*Mat[E]) { GemmTAccCols(ds[0], a, bT, lo) })
		check("GemmTAccColsBatch", mats(ops, m, n), func(ds []*Mat[E]) { GemmTAccColsBatch(ds, as, bT, lo) })
		check("GemmTAccColsBatch/M1", mats(ops, 1, n), func(ds []*Mat[E]) { GemmTAccColsBatch(ds, rows1, bT, lo) })
		check("GemmTAccColsPacked", one(mat(m, n)), func(ds []*Mat[E]) { GemmTAccColsPacked(ds[0], a, pp) })
		check("GemmTAccColsPackedBatch/M1", mats(ops, 1, n), func(ds []*Mat[E]) { GemmTAccColsPackedBatch(ds, rows1, pp) })
		check("GemmTAccDstCols", one(mat(m, dLo+n+1)), func(ds []*Mat[E]) { GemmTAccDstCols(ds[0], dLo, a, bTk) })
		check("GemmAccCols", one(mat(m, n)), func(ds []*Mat[E]) { GemmAccCols(ds[0], g, lo, lo+k, w, lo) })
		check("GemmAccColsBatch", mats(ops, m, n), func(ds []*Mat[E]) { GemmAccColsBatch(ds, gs, lo, lo+k, w, lo) })
	}
}

// vecDiffersFromGo runs run on clones of dsts with the vector kernels off
// and then on, and returns the first operand whose bits differ, or -1.
func vecDiffersFromGo[E Elt](dsts []*Mat[E], run func(ds []*Mat[E])) int {
	var got [2][]*Mat[E]
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

// TestDotColsMatchGo checks GemmTAccCols on m = 1..4 rows at both dtypes:
// the rows that dotCols runs one column per lane (the chain of a batch-1 to
// 3 step, and the rows left over after the four-row lanes) and one group of
// row lanes, at shapes the random trials reach rarely. They are the Table
// III window (lo > 0, kb ≫ k); serve_mh_mixed's (3 layers of 40/64, gate
// width 256: the chain's k = 64 at lo = In = 40 and 128, and the
// projection's k = 40 and 128 at lo = 0, which also runs as a tile of eight
// operands); n across the blockN panel boundary with n%16 ≠ 0; and k = 0, 1
// and odd. Each runs without and with ±Inf and NaN, which swamp most sums at
// k = 256.
func TestDotColsMatchGo(t *testing.T) {
	if !hasAVX() {
		t.Skip("no AVX: the Go kernels are the only path")
	}
	t.Run("f64", dotColsMatchGo[float64])
	t.Run("f32", dotColsMatchGo[float32])
}

func dotColsMatchGo[E Elt](t *testing.T) {
	setVecKernels(t, true)
	r := rng.New(47)
	for _, sh := range []struct{ k, n, kb, lo int }{
		{256, 1024, 512, 256}, // Table III: Wh inside the fused [4H x In+H] weights
		{64, 256, 104, 40},    // serve_mh_mixed chain, layer 1
		{64, 256, 192, 128},   // serve_mh_mixed chain, layers 2-3
		{40, 256, 104, 0},     // serve_mh_mixed projection, layer 1
		{128, 256, 192, 0},    // serve_mh_mixed projection, layers 2-3
		{33, blockN + 11, 41, 5},
		{0, 27, 3, 2},
		{1, 27, 3, 2},
		{7, 2*blockN + 3, 70, 60},
		{129, 13, 300, 100},
	} {
		for m := 1; m <= 4; m++ {
			for _, specials := range []bool{false, true} {
				mat := func(rows, cols int) *Mat[E] { return specialMatrix[E](r, rows, cols, specials) }
				a, bT, d := mat(m, sh.k), mat(sh.n, sh.kb), mat(m, sh.n)
				var as, ds []*Mat[E]
				for range 8 {
					as, ds = append(as, mat(m, sh.k)), append(ds, mat(m, sh.n))
				}
				for name, differs := range map[string]bool{
					"GemmTAccCols":      vecDiffersFromGo([]*Mat[E]{d}, func(ds []*Mat[E]) { GemmTAccCols(ds[0], a, bT, sh.lo) }) >= 0,
					"GemmTAccColsBatch": vecDiffersFromGo(ds, func(ds []*Mat[E]) { GemmTAccColsBatch(ds, as, bT, sh.lo) }) >= 0,
				} {
					if differs {
						t.Fatalf("%s (m=%d k=%d n=%d kb=%d lo=%d specials=%v): vector bits differ from Go",
							name, m, sh.k, sh.n, sh.kb, sh.lo, specials)
					}
				}
			}
		}
	}
}

// gemmBenchShape is one named shape of a benchmarked GEMM family; each
// benchmark's body says what its rows, gates, k, t and kb are.
type gemmBenchShape struct {
	name                  string
	rows, gates, k, t, kb int
}

// gemmBenchShapes are the paper's two training shapes: Table III (LSTM
// 256/256, batch 1, so every projection and dX operand is one row of an
// 8-step tile, and dW sums over T=100 steps) and Table IV (GRU 256/256,
// 8-row mini-batches, dW over T*rows = 160 terms).
var gemmBenchShapes = []gemmBenchShape{
	{"tableIII", 1, 4 * 256, 100, 8, 512},
	{"tableIV", 8, 3 * 256, 160, 8, 512},
}

// benchBody is one dtype's instantiation of a benchmark body.
type benchBody struct {
	dtype string
	run   func(b *testing.B, sh gemmBenchShape)
}

// benchVecAndGo runs each body as a "go" and a "vec" sub-benchmark per shape
// and reports GFLOP/s from the flops one call performs.
func benchVecAndGo(b *testing.B, shapes []gemmBenchShape, flops func(sh gemmBenchShape) int, bodies ...benchBody) {
	for _, sh := range shapes {
		for _, body := range bodies {
			for _, path := range []string{"go", "vec"} {
				b.Run(fmt.Sprintf("%s/%s/%s", sh.name, body.dtype, path), func(b *testing.B) {
					if path == "vec" && !hasAVX() {
						b.Skip("no AVX")
					}
					setVecKernels(b, path == "vec")
					body.run(b, sh)
					b.ReportMetric(float64(flops(sh))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			}
		}
	}
}

// BenchmarkGemmProj is the projection: t operand tiles of k inputs times the
// input half of the fused [gates x kb] weights (gemmTColsPanel, operand or
// row lanes), at both dtypes. The mh shapes are serve_mh_mixed's f32 model
// (3 layers of 40/64, gate width 256) at 1 and 4 rows: layer 1 (k = 40) and
// layers 2-3 (k = 128).
func BenchmarkGemmProj(b *testing.B) {
	shapes := []gemmBenchShape{
		{"tableIII", 1, 4 * 256, 256, 8, 512},
		{"tableIV", 8, 3 * 256, 256, 8, 512},
		{"mh-l1", 1, 4 * 64, 40, 8, 104},
		{"mh-l1-b4", 4, 4 * 64, 40, 8, 104},
		{"mh-l23", 1, 4 * 64, 128, 8, 192},
		{"mh-l23-b4", 4, 4 * 64, 128, 8, 192},
	}
	benchVecAndGo(b, shapes, func(sh gemmBenchShape) int { return 2 * sh.t * sh.rows * sh.k * sh.gates },
		benchBody{"f64", gemmProjBody[float64]}, benchBody{"f32", gemmProjBody[float32]})
}

func gemmProjBody[E Elt](b *testing.B, sh gemmBenchShape) {
	r := rng.New(1)
	w := ConvertedOf[E](randomMatrix(r, sh.gates, sh.kb))
	var dsts, xs []*Mat[E]
	for range sh.t {
		dsts, xs = append(dsts, NewOf[E](sh.rows, sh.gates)), append(xs, ConvertedOf[E](randomMatrix(r, sh.rows, sh.k)))
	}
	for b.Loop() {
		GemmTAccColsBatch(dsts, xs, w, 0)
	}
}

// BenchmarkGemmDW is the whole-sequence weight gradient: gate gradients
// [gates x k] times inputs [256 x k] (gemmTColsPanel over GemmTAccDstCols,
// row lanes).
func BenchmarkGemmDW(b *testing.B) {
	benchVecAndGo(b, gemmBenchShapes, func(sh gemmBenchShape) int { return 2 * sh.gates * sh.k * 256 },
		benchBody{"f64", func(b *testing.B, sh gemmBenchShape) {
			r := rng.New(2)
			dw, p, xT := New(sh.gates, 512), randomMatrix(r, sh.gates, sh.k), randomMatrix(r, 256, sh.k)
			for b.Loop() {
				GemmTAccDstCols(dw, 0, p, xT)
			}
		}})
}

// BenchmarkGemmDX is the input gradient: t gate-gradient tiles times the
// input half of the weights (gemmAColsBlock, lanes over columns).
func BenchmarkGemmDX(b *testing.B) {
	benchVecAndGo(b, gemmBenchShapes, func(sh gemmBenchShape) int { return 2 * sh.t * sh.rows * sh.gates * 256 },
		benchBody{"f64", func(b *testing.B, sh gemmBenchShape) {
			r := rng.New(3)
			w := randomMatrix(r, sh.gates, 512)
			var dsts, gs []*Matrix
			for range sh.t {
				dsts, gs = append(dsts, New(sh.rows, 256)), append(gs, randomMatrix(r, sh.rows, sh.gates))
			}
			for b.Loop() {
				GemmAccColsBatch(dsts, gs, 0, sh.gates, w, 0)
			}
		}})
}

// BenchmarkGemmChain is the recurrent chain of a step: hPrev [rows x k]
// times the recurrent half Wh = W[:, kb-k:] of the fused [gates x kb]
// weights (gemmTColsPanel: dotCols at 1 row, row lanes at 4), cycling over t
// weight matrices, at both dtypes. The shapes are one hot Wh at Table III's
// H = 256, the 12 Wh of its 6-layer bidirectional model, H = 128 and
// train_fine_h32_t100's H = 32, whose Wh sit in L2, and serve_mh_mixed's
// layers 2-3 (H = 64 after In = 128) at 1 and 4 rows.
func BenchmarkGemmChain(b *testing.B) {
	shapes := []gemmBenchShape{
		{"tableIII", 1, 4 * 256, 256, 1, 512},
		{"tableIII-12w", 1, 4 * 256, 256, 12, 512},
		{"h128", 1, 4 * 128, 128, 1, 256},
		{"h32", 1, 4 * 32, 32, 1, 64},
		{"mh", 1, 4 * 64, 64, 1, 192},
		{"mh-b4", 4, 4 * 64, 64, 1, 192},
	}
	benchVecAndGo(b, shapes, func(sh gemmBenchShape) int { return 2 * sh.t * sh.rows * sh.k * sh.gates },
		benchBody{"f64", gemmChainBody[float64]}, benchBody{"f32", gemmChainBody[float32]})
}

func gemmChainBody[E Elt](b *testing.B, sh gemmBenchShape) {
	r := rng.New(4)
	ws := make([]*Mat[E], sh.t)
	for i := range ws {
		ws[i] = ConvertedOf[E](randomMatrix(r, sh.gates, sh.kb))
	}
	d, h := NewOf[E](sh.rows, sh.gates), ConvertedOf[E](randomMatrix(r, sh.rows, sh.k))
	for b.Loop() {
		for _, w := range ws {
			GemmTAccCols(d, h, w, sh.kb-sh.k)
		}
	}
}
