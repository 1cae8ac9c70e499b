package tensor

import (
	"fmt"
	"math"
	"testing"

	"bpar/internal/rng"
)

// activationEdges are the inputs where a branch or a lane range turns:
// ±0, ±Inf, NaN, tanh's 0.625 and log(2^127)/2 edges, the kernel's ±708,
// exp's overflow, and arguments whose results are denormal (at float64
// past -708, at float32 past -87).
var activationEdges = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	0.625, -0.625, math.Nextafter(0.625, 0), math.Nextafter(-0.625, 0),
	0.5 * 8.8029691931113054295988e+01, math.Nextafter(0.5*8.8029691931113054295988e+01, 0),
	44.0148, -44.0148, 44.02, 45, -45,
	708, -708, math.Nextafter(708, 1000), math.Nextafter(-708, -1000), 709.7, -709.7, 710, -710,
	-740, -745, -745.2, -750, -90, -100, -103, -104,
	1e-300, -1e-300, 5e-324, -5e-324, 1e-8, -1e-8,
}

// activationInput draws n inputs: mostly uniform in [-20, 20], with edges
// and values out to ±800 scattered in.
func activationInput(r *rng.RNG, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		switch u := r.Intn(8); {
		case u == 0:
			s[i] = activationEdges[r.Intn(len(activationEdges))]
		case u == 1:
			s[i] = 1600*r.Float64() - 800
		default:
			s[i] = 40*r.Float64() - 20
		}
	}
	return s
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// activationsMatch runs fn with the vector kernels off and on over the same
// input, and requires the bits of f applied element by element both times.
func activationsMatch[E Elt](t *testing.T, name string, fn func([]E), f func(float64) float64, in []float64) {
	src := make([]E, len(in))
	ConvertSlice(src, in)
	for _, vec := range []bool{false, true} {
		setVecKernels(t, vec)
		got := append([]E(nil), src...)
		fn(got)
		for i, v := range src {
			if want := E(f(float64(v))); !sameFloat(float64(got[i]), float64(want)) {
				t.Fatalf("%s %T vec=%v n=%d: [%d] f(%g) = %g, want %g", name, v, vec, len(src), i, v, got[i], want)
			}
		}
	}
}

// TestActivationsMatchGo holds the lane kernels to the Go definitions bit
// for bit, at both dtypes, on every length from 0 to 67 (so every split
// into groups of four and a tail), over random inputs with the edges mixed
// in, and with each edge at every lane of a group.
func TestActivationsMatchGo(t *testing.T) {
	r := rng.New(51)
	for n := 0; n <= 67; n++ {
		for range 8 {
			in := activationInput(r, n)
			activationsMatch(t, "Sigmoid", SigmoidSlice[float64], Sigmoid, in)
			activationsMatch(t, "Sigmoid", SigmoidSlice[float32], Sigmoid, in)
			activationsMatch(t, "tanh", TanhSlice[float64], tanh, in)
			activationsMatch(t, "tanh", TanhSlice[float32], tanh, in)
		}
	}
	for _, x := range activationEdges {
		for lane := range 4 {
			in := []float64{0.5, -1.5, 3, -7}
			in[lane] = x
			activationsMatch(t, "Sigmoid", SigmoidSlice[float64], Sigmoid, in)
			activationsMatch(t, "Sigmoid", SigmoidSlice[float32], Sigmoid, in)
			activationsMatch(t, "tanh", TanhSlice[float64], tanh, in)
			activationsMatch(t, "tanh", TanhSlice[float32], tanh, in)
		}
	}
}

// ulps returns how many float64 values lie between a and b (both finite or
// equal).
func ulps(a, b float64) uint64 {
	if a == b {
		return 0
	}
	ia, ib := int64(math.Float64bits(a)), int64(math.Float64bits(b))
	if ia < 0 {
		ia = math.MinInt64 - ia
	}
	if ib < 0 {
		ib = math.MinInt64 - ib
	}
	if ia > ib {
		return uint64(ia - ib)
	}
	return uint64(ib - ia)
}

// TestOwnExpNearMath bounds the owned exp, Sigmoid and tanh against the
// math package's exp and tanh: within 2 ulp over a dense sweep of
// [-708, 708] and at the edges.
func TestOwnExpNearMath(t *testing.T) {
	mathSigmoid := func(x float64) float64 {
		if x >= 0 {
			return 1 / (1 + math.Exp(-x))
		}
		e := math.Exp(x)
		return e / (1 + e)
	}
	fns := []struct {
		name      string
		own, math func(float64) float64
	}{
		{"exp", Exp, math.Exp},
		{"Sigmoid", Sigmoid, mathSigmoid},
		{"tanh", tanh, math.Tanh},
	}
	const steps = 1 << 20
	for _, fn := range fns {
		check := func(x float64) {
			got, want := fn.own(x), fn.math(x)
			if !sameFloat(got, want) && (math.IsNaN(got) || math.IsNaN(want) || ulps(got, want) > 2) {
				t.Fatalf("%s(%v) = %v, math gives %v", fn.name, x, got, want)
			}
		}
		for i := range steps + 1 {
			check(-708 + 1416*float64(i)/steps)
		}
		for _, x := range activationEdges {
			check(x)
		}
	}
}

// TestActivationsAtKnownPoints pins values every definition must reach
// exactly: e^0 = 1, tanh's odd symmetry at ±0 and saturation, and exp's
// overflow and underflow.
func TestActivationsAtKnownPoints(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		name    string
		got, at float64
		want    float64
	}{
		{"exp", Exp(0), 0, 1},
		{"exp", Exp(negZero), negZero, 1},
		{"exp", Exp(710), 710, math.Inf(1)},
		{"exp", Exp(-746), -746, 0},
		{"exp", Exp(math.Inf(-1)), math.Inf(-1), 0},
		{"tanh", tanh(negZero), negZero, negZero},
		{"tanh", tanh(math.Inf(-1)), math.Inf(-1), -1},
		{"tanh", tanh(20), 20, 1},
		{"Sigmoid", Sigmoid(negZero), negZero, 0.5},
	} {
		if !sameFloat(c.got, c.want) {
			t.Errorf("%s(%v) = %v, want %v", c.name, c.at, c.got, c.want)
		}
	}
}

// BenchmarkActivations times SigmoidSlice and TanhSlice at the engine's
// gate widths, with the vector kernels off (go) and on (vec).
func BenchmarkActivations(b *testing.B) {
	fns := []struct {
		name string
		f64  func([]float64)
		f32  func([]float32)
	}{
		{"sigmoid", SigmoidSlice[float64], SigmoidSlice[float32]},
		{"tanh", TanhSlice[float64], TanhSlice[float32]},
	}
	for _, fn := range fns {
		for _, n := range []int{32, 64, 256} {
			src := activationInput(rng.New(1), n)
			for i, v := range src {
				src[i] = math.Max(-20, math.Min(20, v))
			}
			src32 := make([]float32, n)
			ConvertSlice(src32, src)
			for _, path := range []string{"go", "vec"} {
				b.Run(fmt.Sprintf("%s/f64/%d/%s", fn.name, n, path), func(b *testing.B) {
					setVecKernels(b, path == "vec")
					s := make([]float64, n)
					for range b.N {
						copy(s, src)
						fn.f64(s)
					}
				})
				b.Run(fmt.Sprintf("%s/f32/%d/%s", fn.name, n, path), func(b *testing.B) {
					setVecKernels(b, path == "vec")
					s := make([]float32, n)
					for range b.N {
						copy(s, src32)
						fn.f32(s)
					}
				})
			}
		}
	}
}
