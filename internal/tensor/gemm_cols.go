package tensor

import "fmt"

// Column-range GEMM kernels for the split-weight execution path. The fused
// gate weight W is stored [G*H x (In+H)] with the input half Wx = W[:, :In]
// and the recurrent half Wh = W[:, In:]. These kernels operate on a column
// window of the weight operand in place, so the serialized layout and the
// public weight structs never change; only the traversal does.
//
// The batched variants take a whole sequence of operands and hoist the weight
// block to the outer loop: one cache-resident weight panel is reused across
// every timestep before the next panel is touched, which is where the
// split path saves memory traffic over one whole-cell GEMM per timestep.

// GemmTAccCols computes dst += a * bT[:, lo:lo+k)^T, where a is m x k and bT
// is n x kb with lo+k <= kb. It is GemmTAcc restricted to a column window of
// the transposed operand, so Wx/Wh products run against the fused weight
// matrix without copying it apart.
func GemmTAccCols[E Elt](dst, a, bT *Mat[E], lo int) {
	checkTCols(dst, a, bT, lo, "GemmTAccCols")
	guardWRR(dst, a, bT)
	m, k, n := a.Rows, a.Cols, bT.Rows
	countGemmOf[E](2 * int64(m) * int64(k) * int64(n))
	for jj := 0; jj < n; jj += blockN {
		gemmTColsPanel(dst, 0, a, bT, lo, jj, min(jj+blockN, n))
	}
}

// MatMulTCols computes dst = a * bT[:, lo:lo+k)^T.
func MatMulTCols[E Elt](dst, a, bT *Mat[E], lo int) {
	checkTCols(dst, a, bT, lo, "MatMulTCols")
	dst.Zero()
	GemmTAccCols(dst, a, bT, lo)
}

// GemmTAccColsBatch computes dst[s] += a[s] * bT[:, lo:lo+k)^T for every s.
// The weight column block is the outer loop: each panel of bT is loaded once
// and reused across the whole operand list, instead of being re-streamed per
// call. Accumulation order per element is identical to sequential
// GemmTAccCols calls, so the result is bitwise the same.
func GemmTAccColsBatch[E Elt](dsts, as []*Mat[E], bT *Mat[E], lo int) {
	if len(dsts) != len(as) {
		panic(fmt.Sprintf("tensor: GemmTAccColsBatch got %d destinations for %d operands", len(dsts), len(as)))
	}
	if len(dsts) == 0 {
		return
	}
	var flops int64
	for s := range dsts {
		checkTCols(dsts[s], as[s], bT, lo, "GemmTAccColsBatch")
		guardWRR(dsts[s], as[s], bT)
		flops += 2 * int64(as[s].Rows) * int64(as[s].Cols) * int64(bT.Rows)
	}
	countGemmOf[E](flops)
	gemmTColsBatch(dsts, as, bT, lo)
}

// gemmTColsBatch is the panel loop of the batched entry points. One-row
// operands (the batch-1 projection tiles) go to the vector kernel four at a
// time, one operand per lane.
func gemmTColsBatch[E Elt](dsts, as []*Mat[E], bT *Mat[E], lo int) {
	for jj := 0; jj < bT.Rows; jj += blockN {
		jMax := min(jj+blockN, bT.Rows)
		s := 0
		for ; vecKernels && s+4 <= len(as) && oneRowEach(as[s:s+4]); s += 4 {
			var lanes laneRows[E]
			for l := range 4 {
				lanes.d[l], lanes.a[l] = dsts[s+l].Data, as[s+l].Data[:as[s].Cols]
			}
			lanes.run(bT.Data, bT.Cols, lo, jj, jMax)
		}
		for ; s < len(dsts); s++ {
			gemmTColsPanel(dsts[s], 0, as[s], bT, lo, jj, jMax)
		}
	}
}

// oneRowEach reports whether every operand is one row of the same width.
func oneRowEach[E Elt](as []*Mat[E]) bool {
	for _, a := range as {
		if a.Rows != 1 || a.Cols != as[0].Cols {
			return false
		}
	}
	return true
}

func checkTCols[E Elt](dst, a, bT *Mat[E], lo int, name string) {
	if dst.Rows != a.Rows || dst.Cols != bT.Rows || lo < 0 || lo+a.Cols > bT.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch dst %dx%d += a %dx%d * (b^T %dx%d)[:, %d:%d)",
			name, dst.Rows, dst.Cols, a.Rows, a.Cols, bT.Rows, bT.Cols, lo, lo+a.Cols))
	}
}

// gemmTColsPanel accumulates dst[:, dstLo+jj:dstLo+jMax) += a *
// bT[jj:jMax, lo:lo+k)^T: with the vector kernels on, one laneRows.run per
// four rows of a, then one dotCols (gemmTRow with the kernels off) per row
// left. Shared by every dot-form entry point so all accumulate in
// bitwise-identical order.
func gemmTColsPanel[E Elt](dst *Mat[E], dstLo int, a, bT *Mat[E], lo, jj, jMax int) {
	m, k := a.Rows, a.Cols
	i := 0
	for ; vecKernels && i+4 <= m; i += 4 {
		var lanes laneRows[E]
		for l := range 4 {
			lanes.d[l], lanes.a[l] = dst.Data[(i+l)*dst.Cols+dstLo:], a.Data[(i+l)*k:(i+l+1)*k]
		}
		lanes.run(bT.Data, bT.Cols, lo, jj, jMax)
	}
	for ; i < m; i++ {
		dotCols(dst.Data[i*dst.Cols+dstLo:], a.Data[i*k:(i+1)*k], bT.Data, bT.Cols, lo, jj, jMax)
	}
}

// gemmTRow accumulates drow[j] += arow · bT[j*kb+lo : j*kb+lo+k) for j in
// [j, jMax), register-blocked four columns wide: each element of arow is
// loaded once and feeds four independent sequential sums, which keeps the
// load ports off the critical path of the h-chain GEMM. The rest take dot.
func gemmTRow[E Elt](drow, arow, bT []E, kb, lo, j, jMax int) {
	k := len(arow)
	for ; j+4 <= jMax; j += 4 {
		// Re-slicing to len(arow) lets the compiler drop the per-element
		// bounds checks in the microkernel loop.
		b0 := bT[j*kb+lo : j*kb+lo+k][:len(arow)]
		b1 := bT[(j+1)*kb+lo : (j+1)*kb+lo+k][:len(arow)]
		b2 := bT[(j+2)*kb+lo : (j+2)*kb+lo+k][:len(arow)]
		b3 := bT[(j+3)*kb+lo : (j+3)*kb+lo+k][:len(arow)]
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
		drow[j] += dot(arow, bT[j*kb+lo:j*kb+lo+k])
	}
}

// GemmAccCols computes dst += a[:, aLo:aHi) * b[:, bLo:bLo+n), where the
// column window of a selects the gate panel and the column window of b
// selects Wx or Wh inside the fused weight matrix. b must have aHi-aLo rows.
// This is the backward-pass kernel for dX = dGates * Wx and dHPrev = dGates *
// Wh without materializing the concatenated dZ.
//
// The microkernel is register-blocked four weight rows deep: one pass over
// the destination row folds in four b rows, so each dst element is loaded and
// stored once per group instead of once per row. The four updates are applied
// as separate statements in row order, keeping per-element accumulation
// bitwise identical to the one-row-at-a-time axpy formulation.
func GemmAccCols[E Elt](dst, a *Mat[E], aLo, aHi int, b *Mat[E], bLo int) {
	checkACols(dst, a, aLo, aHi, b, bLo, "GemmAccCols")
	guardWRR(dst, a, b)
	m, kw, n := a.Rows, aHi-aLo, dst.Cols
	countGemmOf[E](2 * int64(m) * int64(kw) * int64(n))
	for kk := 0; kk < kw; kk += blockK {
		gemmAColsBlock(dst, a, aLo, b, bLo, kk, min(kk+blockK, kw))
	}
}

// gemmAColsBlock accumulates weight rows [kk, kMax) of one windowed a*b
// product into dst. Shared by the single and batched entry points so both
// accumulate in bitwise-identical order. With the vector kernels on and E
// float64 (this training-only form has no float32 kernel), the first n&^3
// columns of each quad update run in axpyQuadAVX, which applies the same
// four adds per element in the same order; the rest stay in Go.
func gemmAColsBlock[E Elt](dst, a *Mat[E], aLo int, b *Mat[E], bLo, kk, kMax int) {
	m, n := a.Rows, dst.Cols
	d64, _ := any(dst).(*Mat[float64])
	b64, _ := any(b).(*Mat[float64])
	nv := 0
	if vecKernels && d64 != nil {
		nv = n &^ 3
	}
	for i := 0; i < m; i++ {
		arow := a.Data[i*a.Cols:]
		drow := dst.Data[i*n+nv : (i+1)*n]
		p := kk
		for ; p+4 <= kMax; p += 4 {
			a0, a1 := arow[aLo+p], arow[aLo+p+1]
			a2, a3 := arow[aLo+p+2], arow[aLo+p+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			if nv > 0 {
				bq := b64.Data[p*b.Cols+bLo : (p+3)*b.Cols+bLo+nv]
				axpyQuadAVX(d64.Data[i*n:i*n+nv], bq, b.Cols, float64(a0), float64(a1), float64(a2), float64(a3))
			}
			// Re-sliced to len(drow) so the inner loop runs
			// without per-element bounds checks.
			b0 := b.Data[p*b.Cols+bLo+nv : p*b.Cols+bLo+n][:len(drow)]
			b1 := b.Data[(p+1)*b.Cols+bLo+nv : (p+1)*b.Cols+bLo+n][:len(drow)]
			b2 := b.Data[(p+2)*b.Cols+bLo+nv : (p+2)*b.Cols+bLo+n][:len(drow)]
			b3 := b.Data[(p+3)*b.Cols+bLo+nv : (p+3)*b.Cols+bLo+n][:len(drow)]
			for j, d := range drow {
				d += a0 * b0[j]
				d += a1 * b1[j]
				d += a2 * b2[j]
				d += a3 * b3[j]
				drow[j] = d
			}
		}
		for ; p < kMax; p++ {
			av := arow[aLo+p]
			if av == 0 {
				continue
			}
			axpy(av, b.Data[p*b.Cols+bLo:p*b.Cols+bLo+n], dst.Data[i*n:(i+1)*n])
		}
	}
}

// MatMulCols computes dst = a[:, aLo:aHi) * b[:, bLo:bLo+n).
func MatMulCols[E Elt](dst, a *Mat[E], aLo, aHi int, b *Mat[E], bLo int) {
	checkACols(dst, a, aLo, aHi, b, bLo, "MatMulCols")
	dst.Zero()
	GemmAccCols(dst, a, aLo, aHi, b, bLo)
}

// GemmAccColsBatch computes dst[s] += a[s][:, aLo:aHi) * b[:, bLo:bLo+n) for
// every s. The weight row block is the outer loop: each panel of b is loaded
// once and reused across the whole operand list — the batched dX = dGates*Wx
// accumulation that moves the input gradient off the backward recurrence.
// Per-element accumulation order (weight rows ascending) is identical to
// sequential GemmAccCols calls, so the result is bitwise the same.
func GemmAccColsBatch[E Elt](dsts, as []*Mat[E], aLo, aHi int, b *Mat[E], bLo int) {
	if len(dsts) != len(as) {
		panic(fmt.Sprintf("tensor: GemmAccColsBatch got %d destinations for %d operands", len(dsts), len(as)))
	}
	if len(dsts) == 0 {
		return
	}
	var flops int64
	for s := range dsts {
		checkACols(dsts[s], as[s], aLo, aHi, b, bLo, "GemmAccColsBatch")
		guardWRR(dsts[s], as[s], b)
		flops += 2 * int64(as[s].Rows) * int64(aHi-aLo) * int64(dsts[s].Cols)
	}
	countGemmOf[E](flops)
	kw := aHi - aLo
	for kk := 0; kk < kw; kk += blockK {
		kMax := min(kk+blockK, kw)
		for s := range dsts {
			gemmAColsBlock(dsts[s], as[s], aLo, b, bLo, kk, kMax)
		}
	}
}

func checkACols[E Elt](dst, a *Mat[E], aLo, aHi int, b *Mat[E], bLo int, name string) {
	if aLo < 0 || aHi > a.Cols || aHi < aLo || b.Rows != aHi-aLo ||
		dst.Rows != a.Rows || bLo < 0 || bLo+dst.Cols > b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch dst %dx%d += (a %dx%d)[:, %d:%d) * (b %dx%d)[:, %d:%d)",
			name, dst.Rows, dst.Cols, a.Rows, a.Cols, aLo, aHi, b.Rows, b.Cols, bLo, bLo+dst.Cols))
	}
}

// GemmTAccDstCols computes dst[:, dstLo:dstLo+n) += a * bT^T, where n =
// bT.Rows: the full product of a [m x k] and bT [n x k] lands in a column
// window of dst. With a = the gate-gradient panels stacked [gw x T*batch]
// and bT = the matching inputs (or previous hidden states) stacked
// [in x T*batch], this is the whole sequence's dWx (or dWh) accumulation as
// one dot-form GEMM: the inner product runs over timesteps, so each weight
// gradient element is read and written once per sequence instead of once per
// timestep, and the microkernel accumulates in registers like the forward
// panel kernel.
func GemmTAccDstCols[E Elt](dst *Mat[E], dstLo int, a, bT *Mat[E]) {
	m, k, n := a.Rows, a.Cols, bT.Rows
	if dst.Rows != m || bT.Cols != k || dstLo < 0 || dstLo+n > dst.Cols {
		panic(fmt.Sprintf("tensor: GemmTAccDstCols shape mismatch (dst %dx%d)[:, %d:%d) += a %dx%d * (b^T %dx%d)",
			dst.Rows, dst.Cols, dstLo, dstLo+n, m, k, bT.Rows, bT.Cols))
	}
	guardWRR(dst, a, bT)
	countGemmOf[E](2 * int64(m) * int64(k) * int64(n))
	for jj := 0; jj < n; jj += blockN {
		gemmTColsPanel(dst, dstLo, a, bT, 0, jj, min(jj+blockN, n))
	}
}

// TransposeStackInto fills dst [d x len(srcs)*rows] with the transposed
// concatenation of srcs: dst[i][s*rows+r] = srcs[s][r][i]. It builds the
// stacked operands of GemmTAccDstCols from a sequence of per-timestep
// panels. All srcs must share dst.Rows columns and the same row count.
func TransposeStackInto[E Elt](dst *Mat[E], srcs []*Mat[E]) {
	if len(srcs) == 0 {
		return
	}
	rows := srcs[0].Rows
	if dst.Cols != len(srcs)*rows {
		panic(fmt.Sprintf("tensor: TransposeStackInto dst %dx%d cannot hold %d stacks of %d rows",
			dst.Rows, dst.Cols, len(srcs), rows))
	}
	guardW(dst)
	for s, src := range srcs {
		if src.Cols != dst.Rows || src.Rows != rows {
			panic(fmt.Sprintf("tensor: TransposeStackInto operand %d is %dx%d, want %dx%d",
				s, src.Rows, src.Cols, rows, dst.Rows))
		}
		guardR(src)
		for r := 0; r < rows; r++ {
			srow := src.Data[r*src.Cols : (r+1)*src.Cols]
			col := s*rows + r
			for i, v := range srow {
				dst.Data[i*dst.Cols+col] = v
			}
		}
	}
}

// CopyColsInto copies src[:, lo:lo+dst.Cols) into dst. It is the guarded
// column-window counterpart of CopyFrom, used to seed chain-task gate buffers
// from the precomputed preload panels.
func CopyColsInto[E Elt](dst, src *Mat[E], lo int) {
	if dst.Rows != src.Rows || lo < 0 || lo+dst.Cols > src.Cols {
		panic(fmt.Sprintf("tensor: CopyColsInto shape mismatch dst %dx%d = (src %dx%d)[:, %d:%d)",
			dst.Rows, dst.Cols, src.Rows, src.Cols, lo, lo+dst.Cols))
	}
	guardWR(dst, src)
	for i := 0; i < dst.Rows; i++ {
		copy(dst.Data[i*dst.Cols:(i+1)*dst.Cols], src.Data[i*src.Cols+lo:i*src.Cols+lo+dst.Cols])
	}
}
