package tensor

// The float64 GEMMs run their hot loops on AVX microkernels (gemm_amd64.s)
// when the CPU has AVX. A vector lane only holds an output independent of
// the other lanes, and each output sees the Go kernel's multiply-then-add
// sequence in the Go kernel's order, with no FMA, so both paths give the same
// bits. The Go kernels stay as the portable path and as the test oracle.

// vecKernels switches the vector kernels on. It is decided once from the
// CPU; only tests change it.
var vecKernels = hasAVX()

// laneChunk is how many terms laneRows.run transposes at a time.
const laneChunk = 128

// vecMat returns m as a float64 matrix when the vector kernels are on and E
// is float64, and nil otherwise.
func vecMat[E Elt](m *Mat[E]) *Mat[float64] {
	if !vecKernels {
		return nil
	}
	v, _ := any(m).(*Mat[float64])
	return v
}

// laneRows are four dot-form output rows, one per vector lane: lane l
// accumulates d[l][j] += a[l] · (row j of bT). All a[l] have one length.
type laneRows struct{ d, a [4][]float64 }

// run is gemmTRow over columns [jj, jMax) for the four lanes. Eight columns
// at a time go to dotLanesAVX, with the lanes' terms transposed into stack
// scratch so one vector holds one term of four outputs. Each output's sum
// starts from +0 and adds its terms in ascending order, as in gemmTRow's
// quad loop; the columns after the last group of eight take the Go path.
func (r *laneRows) run(bT []float64, kb, lo, jj, jMax int) {
	nv, k := (jMax-jj)&^7, len(r.a[0])
	var acc [blockN * 4]float64
	var aT [4 * laneChunk]float64
	for p0 := 0; p0 < k && nv > 0; p0 += laneChunk {
		kc := min(laneChunk, k-p0)
		for l, arow := range r.a {
			for p, v := range arow[p0 : p0+kc] {
				aT[4*p+l] = v
			}
		}
		for c := 0; c < nv; c += 8 {
			off := (jj+c)*kb + lo + p0
			dotLanesAVX((*[32]float64)(acc[4*c:]), &aT[0], bT[off:off+7*kb+kc], kb, kc)
		}
	}
	for l, drow := range r.d {
		for c := range nv {
			drow[jj+c] += acc[4*c+l]
		}
		gemmTRow(drow, r.a[l], bT, kb, lo, jj+nv, jMax)
	}
}

// dotCols is gemmTRow with eight columns at a time in dotColsAVX, one column
// per lane: each sum starts from +0 and adds its terms in ascending order,
// an odd last term in Go, then lands in drow[j]. The columns after the last
// group of eight take gemmTRow.
func dotCols(drow, arow, bT []float64, kb, lo, j, jMax int) {
	var s [8]float64
	for k := len(arow); j+8 <= jMax; j += 8 {
		dotColsAVX(&s, arow, bT[j*kb+lo:(j+7)*kb+lo+k], kb)
		for c, v := range s {
			if k&1 == 1 {
				v += arow[k-1] * bT[(j+c)*kb+lo+k-1]
			}
			drow[j+c] += v
		}
	}
	gemmTRow(drow, arow, bT, kb, lo, j, jMax)
}
