package tensor

import "fmt"

// AddBiasRows adds the bias vector to every row of m (broadcast add), the
// "+ B" term of Equations 1-4 and 7-9.
func AddBiasRows[E Elt](m *Mat[E], bias []E) {
	if len(bias) != m.Cols {
		panic(fmt.Sprintf("tensor: AddBiasRows bias[%d] vs %d cols", len(bias), m.Cols))
	}
	guardW(m)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, b := range bias {
			row[j] += b
		}
	}
}

// Add computes dst = a + b element-wise.
func Add[E Elt](dst, a, b *Mat[E]) {
	checkSameShape3("Add", dst, a, b)
	guardWRR(dst, a, b)
	for i, v := range a.Data {
		dst.Data[i] = v + b.Data[i]
	}
}

// Mul computes dst = a ⊙ b, the Hadamard product used by Equations 5, 6, 9
// and 10.
func Mul[E Elt](dst, a, b *Mat[E]) {
	checkSameShape3("Mul", dst, a, b)
	guardWRR(dst, a, b)
	for i, v := range a.Data {
		dst.Data[i] = v * b.Data[i]
	}
}

// AddAcc computes dst += a.
func AddAcc[E Elt](dst, a *Mat[E]) {
	checkSameShape2("AddAcc", dst, a)
	guardWR(dst, a)
	for i, v := range a.Data {
		dst.Data[i] += v
	}
}

// Scale computes dst = alpha * a.
func Scale[E Elt](dst *Mat[E], alpha E, a *Mat[E]) {
	checkSameShape2("Scale", dst, a)
	guardWR(dst, a)
	for i, v := range a.Data {
		dst.Data[i] = alpha * v
	}
}

// ScaleInPlace multiplies every element of m by alpha.
func ScaleInPlace[E Elt](m *Mat[E], alpha E) {
	guardW(m)
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// AxpyMatrix computes dst += alpha * a, the SGD update kernel.
func AxpyMatrix[E Elt](dst *Mat[E], alpha E, a *Mat[E]) {
	checkSameShape2("AxpyMatrix", dst, a)
	guardWR(dst, a)
	axpy(alpha, a.Data, dst.Data)
}

// Average computes dst = (a + b) / 2, one of the merge operators of
// Equation 11.
func Average[E Elt](dst, a, b *Mat[E]) {
	checkSameShape3("Average", dst, a, b)
	guardWRR(dst, a, b)
	for i, v := range a.Data {
		dst.Data[i] = 0.5 * (v + b.Data[i])
	}
}

// ArgmaxRows returns, for each row, the column index of the maximum value.
func ArgmaxRows[E Elt](m *Mat[E]) []int {
	guardR(m)
	out := make([]int, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		best, bi := row[0], 0
		for j := 1; j < len(row); j++ {
			if row[j] > best {
				best, bi = row[j], j
			}
		}
		out[i] = bi
	}
	return out
}

// ClipInPlace clamps every element into [-limit, limit]; gradient clipping.
func ClipInPlace[E Elt](m *Mat[E], limit E) {
	if limit <= 0 {
		panic("tensor: ClipInPlace requires positive limit")
	}
	guardW(m)
	for i, v := range m.Data {
		if v > limit {
			m.Data[i] = limit
		} else if v < -limit {
			m.Data[i] = -limit
		}
	}
}

func checkSameShape2[E Elt](op string, a, b *Mat[E]) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

func checkSameShape3[E Elt](op string, a, b, c *Mat[E]) {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.Rows != c.Rows || a.Cols != c.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d, %dx%d, %dx%d",
			op, a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
}
