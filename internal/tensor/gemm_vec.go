package tensor

import "unsafe"

// The GEMMs run their hot loops on AVX microkernels (gemm_amd64.s) when the
// CPU has AVX: the dot forms at both dtypes, the axpy form at float64. A
// vector lane only holds an output independent of the other lanes, and each
// output sees the Go kernel's multiply-then-add sequence in the Go kernel's
// order, with no FMA, so both paths give the same bits (on amd64 Go rounds
// each float32 product and sum to float32, as VMULPS and VADDPS do). The Go
// kernels stay as the portable path and as the test oracle.

// vecKernels switches the vector kernels on. It is decided once from the
// CPU; only tests change it.
var vecKernels = hasAVX()

// laneChunk is how many terms laneRows.run transposes at a time.
const laneChunk = 128

// vecCols is how many columns one dot-form kernel call covers, two ymm
// registers' lanes of E: 8 at float64, 16 at float32. It reads E's size, not
// DTypeOf, so each instantiation folds it to a constant.
func vecCols[E Elt]() int { var z E; return 64 / int(unsafe.Sizeof(z)) }

// ptr is s's data pointer, as the kernels take it: they read E's dtype
// from a flag.
func ptr[E Elt](s []E) unsafe.Pointer { return unsafe.Pointer(unsafe.SliceData(s)) }

// laneRows are four dot-form output rows, one per vector lane: lane l
// accumulates d[l][j] += a[l] · (row j of bT). All a[l] have one length.
type laneRows[E Elt] struct{ d, a [4][]E }

// run is gemmTRow over columns [jj, jMax) for the four lanes. vecCols
// columns at a time go to dotLanesAVX, with the lanes' terms transposed into
// stack scratch so one vector holds one term of four outputs. Each output's
// sum starts from +0 and adds its terms in ascending order, as in gemmTRow's
// quad loop; the columns after the last whole group take the Go path.
func (r *laneRows[E]) run(bT []E, kb, lo, jj, jMax int) {
	w := vecCols[E]()
	nv, k := (jMax-jj)/w*w, len(r.a[0])
	var acc [blockN * 4]E
	var aT [4 * laneChunk]E
	for p0 := 0; p0 < k && nv > 0; p0 += laneChunk {
		kc := min(laneChunk, k-p0)
		for l, arow := range r.a {
			for p, v := range arow[p0 : p0+kc] {
				aT[4*p+l] = v
			}
		}
		for c := 0; c < nv; c += w {
			off := (jj+c)*kb + lo + p0
			dotLanesAVX(ptr(acc[4*c:4*(c+w)]), ptr(aT[:]), ptr(bT[off:off+(w-1)*kb+kc]), kb, kc, w == 16)
		}
	}
	for l, drow := range r.d {
		for c := range nv {
			drow[jj+c] += acc[4*c+l]
		}
		gemmTRow(drow, r.a[l], bT, kb, lo, jj+nv, jMax)
	}
}

// dotCols is gemmTRow with, when the vector kernels are on, vecCols columns
// at a time in dotColsAVX, one column per lane: each sum starts from +0 and
// adds its terms in ascending order, w/4 per kernel step and the rest in Go,
// then lands in drow[j]. The columns after the last whole group take
// gemmTRow.
func dotCols[E Elt](drow, arow, bT []E, kb, lo, j, jMax int) {
	var s [16]E
	w, k := vecCols[E](), len(arow)
	for ; vecKernels && j+w <= jMax; j += w {
		dotColsAVX(ptr(s[:]), ptr(arow), ptr(bT[j*kb+lo:(j+w-1)*kb+lo+k]), kb, k, w == 16)
		for c, v := range s[:w] {
			for p := k &^ (w/4 - 1); p < k; p++ {
				v += arow[p] * bT[(j+c)*kb+lo+p]
			}
			drow[j+c] += v
		}
	}
	gemmTRow(drow, arow, bT, kb, lo, j, jMax)
}
