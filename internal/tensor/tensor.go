// Package tensor implements the dense linear-algebra kernels that back every
// B-Par task: blocked matrix multiplication, element-wise gate arithmetic,
// and the activation functions used by LSTM and GRU cells (Equations 1-10 of
// the paper).
//
// It is the stand-in for the MKL-Sequential library the paper links against:
// each B-Par task executes a short sequence of these kernels sequentially,
// and all parallelism comes from running many tasks concurrently.
//
// Matrices are dense, row-major, and generic over the two supported element
// types (see Elt). float64 is the training dtype — its kernels are
// bitwise-pinned by the determinism oracles — while float32 is an opt-in
// inference dtype. Row-major keeps the inner GEMM loops contiguous and makes
// [batch x features] activations cheap to slice per sample.
package tensor

import (
	"fmt"
	"math"
)

// Mat is a dense row-major matrix of element type E.
type Mat[E Elt] struct {
	Rows, Cols int
	// Data holds Rows*Cols values; element (i, j) lives at Data[i*Cols+j].
	Data []E
}

// Matrix is the float64 matrix — the dtype of training, checkpoints, and
// every pre-existing kernel signature.
type Matrix = Mat[float64]

// New returns a zeroed rows x cols float64 matrix.
func New(rows, cols int) *Matrix {
	return NewOf[float64](rows, cols)
}

// At returns element (i, j).
func (m *Mat[E]) At(i, j int) E { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat[E]) Set(i, j int, v E) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Mat[E]) Row(i int) []E { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Mat[E]) Clone() *Mat[E] {
	guardR(m)
	c := NewOf[E](m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies src into m; dimensions must match.
func (m *Mat[E]) CopyFrom(src *Mat[E]) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	guardWR(m, src)
	copy(m.Data, src.Data)
}

// Zero sets every element to zero.
func (m *Mat[E]) Zero() {
	guardW(m)
	clear(m.Data)
}

// Equal reports exact element-wise equality (including shape).
func (m *Mat[E]) Equal(o *Mat[E]) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		if v != o.Data[i] {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference.
func (m *Mat[E]) MaxAbsDiff(o *Mat[E]) float64 {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return math.Inf(1)
	}
	max := 0.0
	for i, v := range m.Data {
		if d := math.Abs(float64(v) - float64(o.Data[i])); d > max {
			max = d
		}
	}
	return max
}

// String renders small matrices for debugging.
func (m *Mat[E]) String() string {
	if m.Rows*m.Cols > 256 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", float64(m.At(i, j)))
		}
	}
	return s + "]"
}

// ConcatCols writes [a | b] into dst. dst must be a.Rows x (a.Cols+b.Cols).
// It implements the [X_t, H_{t-1}] concatenation from Equations 1-4 and 7-9.
func ConcatCols[E Elt](dst, a, b *Mat[E]) {
	if a.Rows != b.Rows || dst.Rows != a.Rows || dst.Cols != a.Cols+b.Cols {
		panic(fmt.Sprintf("tensor: ConcatCols shape mismatch dst %dx%d, a %dx%d, b %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	guardWRR(dst, a, b)
	for i := 0; i < a.Rows; i++ {
		d := dst.Row(i)
		copy(d[:a.Cols], a.Row(i))
		copy(d[a.Cols:], b.Row(i))
	}
}

// SplitCols writes the first a.Cols columns of src into a and the remaining
// b.Cols columns into b. It is the adjoint of ConcatCols, used in backward
// propagation to split the gradient of [X_t, H_{t-1}].
func SplitCols[E Elt](src, a, b *Mat[E]) {
	if a.Rows != b.Rows || src.Rows != a.Rows || src.Cols != a.Cols+b.Cols {
		panic(fmt.Sprintf("tensor: SplitCols shape mismatch src %dx%d, a %dx%d, b %dx%d",
			src.Rows, src.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	guardWR(a, src)
	guardWR(b, src)
	for i := 0; i < src.Rows; i++ {
		s := src.Row(i)
		copy(a.Row(i), s[:a.Cols])
		copy(b.Row(i), s[a.Cols:])
	}
}

// SliceRows returns a view of rows [lo, hi) sharing storage with m.
// It is used to split a batch into mini-batches without copying.
func (m *Mat[E]) SliceRows(lo, hi int) *Mat[E] {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) out of range for %d rows", lo, hi, m.Rows))
	}
	return &Mat[E]{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}
