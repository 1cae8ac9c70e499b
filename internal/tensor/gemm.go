package tensor

import "fmt"

// Blocking parameters for the cache-blocked GEMM kernels. Tuned for typical
// L1/L2 sizes; correctness never depends on them.
const (
	blockN = 64
	blockK = 64
)

// GemmAcc computes dst += a * b with cache blocking.
// dst must be m x n and must not alias a or b.
func GemmAcc[E Elt](dst, a, b *Mat[E]) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: GemmAcc shape mismatch dst %dx%d += a %dx%d * b %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	guardWRR(dst, a, b)
	m, k, n := a.Rows, a.Cols, b.Cols
	countGemmOf[E](2 * int64(m) * int64(k) * int64(n))
	for kk := 0; kk < k; kk += blockK {
		kMax := min(kk+blockK, k)
		for i := 0; i < m; i++ {
			arow := a.Data[i*k:]
			drow := dst.Data[i*n : (i+1)*n]
			for p := kk; p < kMax; p++ {
				// No zero-skip here: dense RNN activations are
				// essentially never exactly zero, so a data-dependent
				// branch only costs its misprediction. The sparse dW
				// kernels (GemmATAcc and friends) keep theirs.
				axpy(arow[p], b.Data[p*n:(p+1)*n], drow)
			}
		}
	}
}

// MatMulT computes dst = a * bT^T, where a is m x k and bT is n x k
// (that is, bT holds B transposed, the natural layout for weight matrices
// stored as [outputs x inputs]). dst must be m x n.
func MatMulT[E Elt](dst, a, bT *Mat[E]) {
	if a.Cols != bT.Cols || dst.Rows != a.Rows || dst.Cols != bT.Rows {
		panic(fmt.Sprintf("tensor: MatMulT shape mismatch dst %dx%d = a %dx%d * (b^T) %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, bT.Rows, bT.Cols))
	}
	dst.Zero()
	GemmTAcc(dst, a, bT)
}

// GemmTAcc computes dst += a * bT^T with cache blocking. Inner loops are dot
// products over contiguous rows of both operands, which is the
// cache-friendliest form for row-major storage.
func GemmTAcc[E Elt](dst, a, bT *Mat[E]) {
	if a.Cols != bT.Cols || dst.Rows != a.Rows || dst.Cols != bT.Rows {
		panic(fmt.Sprintf("tensor: GemmTAcc shape mismatch dst %dx%d += a %dx%d * (b^T) %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, bT.Rows, bT.Cols))
	}
	guardWRR(dst, a, bT)
	m, k, n := a.Rows, a.Cols, bT.Rows
	countGemmOf[E](2 * int64(m) * int64(k) * int64(n))
	for jj := 0; jj < n; jj += blockN {
		jMax := min(jj+blockN, n)
		for i := 0; i < m; i++ {
			arow := a.Data[i*k : (i+1)*k]
			drow := dst.Data[i*n:]
			for j := jj; j < jMax; j++ {
				brow := bT.Data[j*k : (j+1)*k]
				drow[j] += dot(arow, brow)
			}
		}
	}
}

// GemmATAcc computes dst += a^T * b, where a is k x m and b is k x n, so dst
// is m x n. This is the kernel for weight gradients: dW += dGates^T * Input.
func GemmATAcc[E Elt](dst, a, b *Mat[E]) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: GemmATAcc shape mismatch dst %dx%d += (a^T of %dx%d) * b %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	guardWRR(dst, a, b)
	k, m, n := a.Rows, a.Cols, b.Cols
	countGemmOf[E](2 * int64(m) * int64(k) * int64(n))
	for p := 0; p < k; p++ {
		arow := a.Data[p*m : (p+1)*m]
		brow := b.Data[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			axpy(av, brow, dst.Data[i*n:(i+1)*n])
		}
	}
}

// dot returns the inner product of equal-length slices, unrolled by four to
// give the compiler independent accumulator chains.
func dot[E Elt](a, b []E) E {
	var s0, s1, s2, s3 E
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return s0 + s1 + s2 + s3
}

// axpy computes y += alpha * x over equal-length slices.
func axpy[E Elt](alpha E, x, y []E) {
	n := len(x)
	y = y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

// Axpy exposes y += alpha*x for vector callers.
func Axpy[E Elt](alpha E, x, y []E) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	axpy(alpha, x, y)
}
