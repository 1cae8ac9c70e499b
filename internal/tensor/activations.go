package tensor

import "math"

// Sigmoid returns the logistic function 1 / (1 + e^-x), the "sigm" of
// Equations 1, 2, 4, 7 and 8. The two-sided formulation avoids overflow for
// large |x|.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// The generic activations evaluate the transcendental in float64 and convert
// the result back to E. At E = float64 the conversions are identities, so the
// float64 instantiations are bitwise-identical to the pre-generic kernels; at
// E = float32 only the final rounding differs from a hypothetical native-f32
// implementation.

// SigmoidInPlace applies Sigmoid element-wise.
func SigmoidInPlace[E Elt](m *Mat[E]) {
	guardW(m)
	for i, v := range m.Data {
		m.Data[i] = E(Sigmoid(float64(v)))
	}
}

// TanhInPlace applies tanh element-wise.
func TanhInPlace[E Elt](m *Mat[E]) {
	guardW(m)
	for i, v := range m.Data {
		m.Data[i] = E(math.Tanh(float64(v)))
	}
}

// SigmoidSlice applies Sigmoid to a sub-slice; gate kernels use it to
// activate only their columns of a fused pre-activation buffer.
func SigmoidSlice[E Elt](s []E) {
	for i, v := range s {
		s[i] = E(Sigmoid(float64(v)))
	}
}

// TanhSlice applies tanh to a sub-slice.
func TanhSlice[E Elt](s []E) {
	for i, v := range s {
		s[i] = E(math.Tanh(float64(v)))
	}
}

// DSigmoidFromY returns the derivative of the sigmoid expressed in terms of
// its output y: y * (1 - y).
func DSigmoidFromY(y float64) float64 { return y * (1 - y) }

// DTanhFromY returns the derivative of tanh expressed in terms of its output
// y: 1 - y².
func DTanhFromY(y float64) float64 { return 1 - y*y }

// SoftmaxRows applies a numerically stable softmax to every row of m in
// place: each row becomes a probability distribution. The exponentials and
// the normalizing sum are computed in float64 for both dtypes.
func SoftmaxRows[E Elt](m *Mat[E]) {
	guardW(m)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		max := row[0]
		for _, v := range row[1:] {
			if v > max {
				max = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(float64(v - max))
			row[j] = E(e)
			sum += e
		}
		inv := 1 / sum
		for j := range row {
			row[j] = E(float64(row[j]) * inv)
		}
	}
}

// IgnoreLabel marks a row as excluded from loss and gradient computation —
// the padding label for within-batch variable-length sequences.
const IgnoreLabel = -1
