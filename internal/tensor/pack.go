package tensor

import "fmt"

// Panel packing for the transposed-weight column-window GEMMs. The split-path
// kernels (GemmTAccCols and friends) read a column window [lo, lo+k) of every
// row of the weight matrix bT [n x kb]: consecutive window rows are strided
// kb elements apart, so at kb in the kilobyte range every row starts a new
// page and the windowed sweep touches a footprint kb/k times larger than the
// data it uses. A PackedPanel copies the window ONCE into a contiguous buffer
// (GotoBLAS-style pack-and-reuse), turning the per-timestep weight sweep into
// a single sequential stream — and amortizing the copy over all timesteps of
// a sequence and all sequences, because the engine caches panels per
// (layer, direction) and only repacks when the weights change.
//
// Layout: column-major over window rows — packed column j (row j of bT) is
// the contiguous k-vector buf[j*k : (j+1)*k]. The packed microkernel is then
// statement-for-statement the unpacked gemmTColsPanel with kb = k, lo = 0:
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
	buf []E
}

// NewPackedPanel packs the column window [lo, lo+k) of bT. The panel holds a
// copy; call Repack after mutating bT.
func NewPackedPanel[E Elt](bT *Mat[E], lo, k int) *PackedPanel[E] {
	if lo < 0 || k < 0 || lo+k > bT.Cols {
		panic(fmt.Sprintf("tensor: NewPackedPanel window [%d,%d) out of range for %d cols", lo, lo+k, bT.Cols))
	}
	pp := &PackedPanel[E]{N: bT.Rows, K: k, Lo: lo, src: bT, buf: make([]E, bT.Rows*k)}
	pp.Repack()
	return pp
}

// Src returns the matrix the panel packs (the live weights, not the copy).
func (pp *PackedPanel[E]) Src() *Mat[E] { return pp.src }

// Bytes returns the size of the packed buffer.
func (pp *PackedPanel[E]) Bytes() int { return len(pp.buf) * int(DTypeOf[E]().Size()) }

// Repack refreshes the packed copy from the source matrix, in place; existing
// pointers to the panel stay valid, which keeps captured replay templates
// working across weight updates.
func (pp *PackedPanel[E]) Repack() {
	guardR(pp.src)
	k, kb := pp.K, pp.src.Cols
	for j := 0; j < pp.N; j++ {
		copy(pp.buf[j*k:(j+1)*k], pp.src.Data[j*kb+pp.Lo:j*kb+pp.Lo+k])
	}
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
		gemmTColsPanelPacked(dst, a, pp, jj, min(jj+blockN, n))
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
	for jj := 0; jj < pp.N; jj += blockN {
		jMax := min(jj+blockN, pp.N)
		for s := range dsts {
			gemmTColsPanelPacked(dsts[s], as[s], pp, jj, jMax)
		}
	}
}

// gemmTColsPanelPacked is gemmTColsPanel reading the contiguous packed
// buffer instead of strided bT rows — identical multiply-add sequence per
// output element, so packed and unpacked results match bitwise per dtype.
func gemmTColsPanelPacked[E Elt](dst, a *Mat[E], pp *PackedPanel[E], jj, jMax int) {
	m, k, n := a.Rows, a.Cols, dst.Cols
	for ii := 0; ii < m; ii += blockM {
		iMax := min(ii+blockM, m)
		for i := ii; i < iMax; i++ {
			arow := a.Data[i*k : (i+1)*k]
			drow := dst.Data[i*n:]
			j := jj
			for ; j+4 <= jMax; j += 4 {
				b0 := pp.buf[j*k : (j+1)*k][:len(arow)]
				b1 := pp.buf[(j+1)*k : (j+2)*k][:len(arow)]
				b2 := pp.buf[(j+2)*k : (j+3)*k][:len(arow)]
				b3 := pp.buf[(j+3)*k : (j+4)*k][:len(arow)]
				var s0, s1, s2, s3 E
				for p, av := range arow {
					s0 += av * b0[p]
					s1 += av * b1[p]
					s2 += av * b2[p]
					s3 += av * b3[p]
				}
				drow[j] += s0
				drow[j+1] += s1
				drow[j+2] += s2
				drow[j+3] += s3
			}
			for ; j < jMax; j++ {
				drow[j] += dot(arow, pp.buf[j*k:(j+1)*k])
			}
		}
	}
}
