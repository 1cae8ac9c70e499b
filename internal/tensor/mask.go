package tensor

import "fmt"

// Masking kernels for variable-length batches. A batch of B rows padded to T
// timesteps carries a per-row length vector lens (len(lens) == B, 1 ≤
// lens[i] ≤ T); row i is real at timesteps t < lens[i] and padding at t ≥
// lens[i]. All three kernels treat a nil lens as "every row is full length",
// so unmasked call sites stay branch-free and bitwise-unchanged.

// MaskRowsZero zeroes every row i of m with lens[i] <= t, i.e. the rows for
// which timestep t is padding. A nil m or nil lens is a no-op.
func MaskRowsZero[E Elt](m *Mat[E], lens []int, t int) {
	if m == nil || lens == nil {
		return
	}
	if len(lens) != m.Rows {
		panic(fmt.Sprintf("tensor: MaskRowsZero lens %d rows %d", len(lens), m.Rows))
	}
	guardW(m)
	for i, n := range lens {
		if n <= t {
			clear(m.Row(i))
		}
	}
}

// AddRowsWhere accumulates selected rows of src into dst: with a nil lens it
// adds every row, but only when t == lastT; with lens it adds exactly the
// rows whose final real timestep is t (lens[i]-1 == t). It routes a
// sequence-final gradient (e.g. a classification head's) to the timestep
// where each row's sequence actually ends.
func AddRowsWhere[E Elt](dst, src *Mat[E], lens []int, t, lastT int) {
	checkSameShape2("AddRowsWhere", dst, src)
	if lens == nil {
		if t != lastT {
			return
		}
		guardWR(dst, src)
		for i, v := range src.Data {
			dst.Data[i] += v
		}
		return
	}
	if len(lens) != dst.Rows {
		panic(fmt.Sprintf("tensor: AddRowsWhere lens %d rows %d", len(lens), dst.Rows))
	}
	guardWR(dst, src)
	for i, n := range lens {
		if n-1 != t {
			continue
		}
		d, s := dst.Row(i), src.Row(i)
		for j, v := range s {
			d[j] += v
		}
	}
}

// GatherRows copies, for each row i, row i of srcs[idx[i]] into row i of
// dst. It assembles the "last real timestep" state of a variable-length
// batch from the per-timestep state matrices (idx[i] = lens[i]-1). Every
// source must have dst's shape.
func GatherRows[E Elt](dst *Mat[E], srcs []*Mat[E], idx []int) {
	if len(idx) != dst.Rows {
		panic(fmt.Sprintf("tensor: GatherRows idx %d rows %d", len(idx), dst.Rows))
	}
	for _, s := range srcs {
		checkSameShape2("GatherRows", dst, s)
	}
	if h := accessHook.Load(); h != nil {
		reads := make([]any, len(srcs))
		for i, s := range srcs {
			reads[i] = s
		}
		(*h)(dst, reads)
	}
	for i, k := range idx {
		if k < 0 || k >= len(srcs) {
			panic(fmt.Sprintf("tensor: GatherRows idx[%d]=%d out of [0,%d)", i, k, len(srcs)))
		}
		copy(dst.Row(i), srcs[k].Row(i))
	}
}
