package tensor

import "fmt"

// Panel packing for the transposed-weight column-window GEMMs. The split-path
// kernels (GemmTAccCols and friends) read a column window [lo, lo+k) of every
// row of the weight matrix bT [n x kb]: consecutive window rows are strided
// kb elements apart. A PackedPanel copies the window once into a contiguous
// buffer (GotoBLAS-style), turning the weight sweep into one sequential
// stream. The engine no longer packs: with the vector kernels, strided reads
// were no slower (DESIGN.md §14); bench's kernel probes still time packing.
//
// Layout: column-major over window rows — packed column j (row j of bT) is
// the contiguous k-vector packed.Data[j*k : (j+1)*k], so the packed kernels
// are gemmTColsPanel over that [N x K] matrix with lo = 0:
// same quad grouping, same accumulation order, same remainder dot, so packed
// kernels are bitwise-identical to their unpacked originals per dtype while
// reading one sequential stream instead of four strided ones.
type PackedPanel[E Elt] struct {
	// N is the number of packed columns (bT.Rows), K the window width, and
	// Lo the window start within bT's rows.
	N, K, Lo int
	// src is the matrix the panel was packed from; packed kernels report it
	// to the access-hook sanitizer so reads attribute to the real weights.
	src *Mat[E]
	// packed views the packed buffer as an [N x K] matrix.
	packed Mat[E]
}

// NewPackedPanel packs the column window [lo, lo+k) of bT. The panel holds a
// copy, so it does not follow later writes to bT.
func NewPackedPanel[E Elt](bT *Mat[E], lo, k int) *PackedPanel[E] {
	if lo < 0 || k < 0 || lo+k > bT.Cols {
		panic(fmt.Sprintf("tensor: NewPackedPanel window [%d,%d) out of range for %d cols", lo, lo+k, bT.Cols))
	}
	guardR(bT)
	pp := &PackedPanel[E]{N: bT.Rows, K: k, Lo: lo, src: bT, packed: Mat[E]{Rows: bT.Rows, Cols: k, Data: make([]E, bT.Rows*k)}}
	for j := range pp.N {
		copy(pp.packed.Data[j*k:(j+1)*k], bT.Data[j*bT.Cols+lo:j*bT.Cols+lo+k])
	}
	return pp
}

func checkPackedCols[E Elt](dst, a *Mat[E], pp *PackedPanel[E], name string) {
	if dst.Rows != a.Rows || dst.Cols != pp.N || a.Cols != pp.K {
		panic(fmt.Sprintf("tensor: %s shape mismatch dst %dx%d += a %dx%d * packed panel %d cols x %d window",
			name, dst.Rows, dst.Cols, a.Rows, a.Cols, pp.N, pp.K))
	}
}

// GemmTAccColsPacked computes dst += a * bT[:, lo:lo+k)^T from a packed
// panel: the packed counterpart of GemmTAccCols, bitwise-identical to it per
// dtype (packing is a pure layout change).
func GemmTAccColsPacked[E Elt](dst, a *Mat[E], pp *PackedPanel[E]) {
	checkPackedCols(dst, a, pp, "GemmTAccColsPacked")
	guardWRR(dst, a, pp.src)
	m, k, n := a.Rows, a.Cols, pp.N
	countGemmOf[E](2 * int64(m) * int64(k) * int64(n))
	for jj := 0; jj < n; jj += blockN {
		gemmTColsPanel(dst, 0, a, &pp.packed, 0, jj, min(jj+blockN, n))
	}
}

// MatMulTColsPacked computes dst = a * bT[:, lo:lo+k)^T from a packed panel.
func MatMulTColsPacked[E Elt](dst, a *Mat[E], pp *PackedPanel[E]) {
	checkPackedCols(dst, a, pp, "MatMulTColsPacked")
	dst.Zero()
	GemmTAccColsPacked(dst, a, pp)
}

// GemmTAccColsPackedBatch computes dst[s] += a[s] * bT[:, lo:lo+k)^T for
// every s from one packed panel — the packed GemmTAccColsBatch. The panel
// block stays the outer loop, so one cache-resident packed tile serves the
// whole sequence of timestep operands.
func GemmTAccColsPackedBatch[E Elt](dsts, as []*Mat[E], pp *PackedPanel[E]) {
	if len(dsts) != len(as) {
		panic(fmt.Sprintf("tensor: GemmTAccColsPackedBatch got %d destinations for %d operands", len(dsts), len(as)))
	}
	if len(dsts) == 0 {
		return
	}
	var flops int64
	for s := range dsts {
		checkPackedCols(dsts[s], as[s], pp, "GemmTAccColsPackedBatch")
		guardWRR(dsts[s], as[s], pp.src)
		flops += 2 * int64(as[s].Rows) * int64(as[s].Cols) * int64(pp.N)
	}
	countGemmOf[E](flops)
	gemmTColsBatch(dsts, as, &pp.packed, 0)
}
