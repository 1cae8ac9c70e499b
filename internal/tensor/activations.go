package tensor

import (
	"math"
	"unsafe"
)

// Exp is the repo's own e^x: the non-FMA sequence of Go's
// math/exp_amd64.s (Shibata's SIMD method, ISC 2010) in Go, branches
// included. Every product that feeds an add is converted explicitly, which
// the Go spec says no compiler may fuse, so the bits hold on every CPU and
// GOARCH: Exp(x) == math.Exp(x) on amd64 without FMA, and is within 2 ulp of
// it elsewhere.
func Exp(x float64) float64 {
	if !(x <= 7.09782712893384e+02) { // NaN stays NaN, the rest overflows
		return x + math.Inf(1)
	}
	k := math.RoundToEven(x * 1.4426950408889634073599246810018920)
	if k < -1075 { // underflow
		return 0
	}
	// r = (x - k·ln 2)/16 with ln 2 in two parts, then Taylor terms in Horner order
	r := (x - float64(k*0.69314718055966295651160180568695068359375) - float64(k*0.28235290563031577122588448175013436025525412068e-12)) * 0.0625
	p := float64(2.4801587301587301587e-5*r) + 1.9841269841269841270e-4
	p = float64(p*r) + 1.3888888888888888889e-3
	p = float64(p*r) + 8.3333333333333333333e-3
	p = float64(p*r) + 4.1666666666666666667e-2
	p = float64(p*r) + 1.6666666666666666667e-1
	p = float64(p*r) + 0.5
	p = float64(p*r) + 1
	r = float64(r * p) // e^r - 1; each step below makes it e^2r - 1, undoing the /16
	for range 4 {
		r = float64(r * (r + 2))
	}
	r++
	e := int(k) + 0x3FF
	switch {
	case e >= 0x7FF:
		return math.Inf(1)
	case e <= 0:
		r *= math.Float64frombits(uint64(e+0x3FE) << 52)
		e = 1
	}
	return float64(r * math.Float64frombits(uint64(e)<<52))
}

var tanhP = [...]float64{-9.64399179425052238628e-1, -9.92877231001918586564e1, -1.61468768441708447952e3}
var tanhQ = [...]float64{1.12811678491632931402e2, 2.23548839060100448583e3, 4.84406305325125486048e3}

// tanh is math.tanh's three branches on Exp.
func tanh(x float64) float64 {
	z := math.Abs(x)
	switch {
	case z > 0.5*8.8029691931113054295988e+01: // log(2^127)/2
		return math.Copysign(1, x)
	case z >= 0.625:
		return math.Copysign(1-2/(Exp(2*z)+1), x)
	case x == 0:
		return x
	}
	s := x * x
	p := float64((float64(tanhP[0]*s)+tanhP[1])*s) + tanhP[2]
	q := float64((float64((s+tanhQ[0])*s)+tanhQ[1])*s) + tanhQ[2]
	return x + x*s*p/q
}

// Sigmoid returns the logistic function 1 / (1 + e^-x), the "sigm" of
// Equations 1, 2, 4, 7 and 8. The two-sided formulation avoids overflow for
// large |x|.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + Exp(-x))
	}
	e := Exp(x)
	return e / (1 + e)
}

// The generic activations evaluate in float64 and round the result to E once.

// SigmoidInPlace applies Sigmoid element-wise.
func SigmoidInPlace[E Elt](m *Mat[E]) { guardW(m); SigmoidSlice(m.Data) }

// TanhInPlace applies tanh element-wise.
func TanhInPlace[E Elt](m *Mat[E]) { guardW(m); TanhSlice(m.Data) }

// SigmoidSlice applies Sigmoid to a sub-slice; gate kernels use it to
// activate only their columns of a fused pre-activation buffer.
func SigmoidSlice[E Elt](s []E) { activate(s, 0, Sigmoid) }

// TanhSlice applies tanh to a sub-slice.
func TanhSlice[E Elt](s []E) { activate(s, actTanh, tanh) }

// actAVX's op bits; without actTanh it runs Sigmoid.
const (
	actTanh = 1 << iota
	actF32
)

// activate applies f to s. With the vector kernels on, actAVX runs whole
// groups of four with f's bits until a group holds a lane outside its safe
// range; that group, and the tail after the last group, take f in Go.
func activate[E Elt](s []E, op int, f func(float64) float64) {
	if DTypeOf[E]() == F32 {
		op |= actF32
	}
	for len(s) > 0 {
		n := 0
		if vecKernels {
			n = actAVX(unsafe.Pointer(&s[0]), len(s), op)
		}
		// Widened before the first call: a float32 converted in place merges
		// into a register that may hold f's last result, chaining the calls.
		g, w := s[n:min(n+4, len(s))], [4]float64{}
		for i, v := range g {
			w[i] = float64(v)
		}
		for i := range g {
			g[i] = E(f(w[i]))
		}
		s = s[n+len(g):]
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
			e := Exp(float64(v - max))
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
