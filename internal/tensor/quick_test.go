package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"bpar/internal/rng"
)

// shapeFromSeeds maps arbitrary uint8 seeds into small positive dimensions so
// testing/quick can drive shape-randomized properties.
func shapeFromSeeds(a, b uint8) (int, int) {
	return int(a%24) + 1, int(b%24) + 1
}

func TestQuickTransposeInvolution(t *testing.T) {
	f := func(seed uint64, rs, cs uint8) bool {
		rows, cols := shapeFromSeeds(rs, cs)
		m := randomMatrix(rng.New(seed), rows, cols)
		return transpose(transpose(m)).Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGemmMatchesNaive(t *testing.T) {
	f := func(seed uint64, ms, ks, ns uint8) bool {
		m, k := shapeFromSeeds(ms, ks)
		n, _ := shapeFromSeeds(ns, 0)
		r := rng.New(seed)
		a := randomMatrix(r, m, k)
		b := randomMatrix(r, k, n)
		got, want := New(m, n), New(m, n)
		GemmAcc(got, a, b)
		MatMulNaive(want, a, b)
		return allClose(got, want, 1e-11, 1e-11)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGemmDistributesOverAdd(t *testing.T) {
	// (A1 + A2) * B == A1*B + A2*B within fp tolerance.
	f := func(seed uint64, ms, ks, ns uint8) bool {
		m, k := shapeFromSeeds(ms, ks)
		n, _ := shapeFromSeeds(ns, 3)
		r := rng.New(seed)
		a1 := randomMatrix(r, m, k)
		a2 := randomMatrix(r, m, k)
		b := randomMatrix(r, k, n)
		sum := New(m, k)
		Add(sum, a1, a2)
		left := New(m, n)
		GemmAcc(left, sum, b)
		r1, r2 := New(m, n), New(m, n)
		GemmAcc(r1, a1, b)
		GemmAcc(r2, a2, b)
		right := New(m, n)
		Add(right, r1, r2)
		return allClose(left, right, 1e-10, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTransposeOfProduct(t *testing.T) {
	// (A*B)^T == B^T * A^T.
	f := func(seed uint64, ms, ks, ns uint8) bool {
		m, k := shapeFromSeeds(ms, ks)
		n, _ := shapeFromSeeds(ns, 7)
		r := rng.New(seed)
		a := randomMatrix(r, m, k)
		b := randomMatrix(r, k, n)
		ab := New(m, n)
		GemmAcc(ab, a, b)
		left := transpose(ab)
		right := New(n, m)
		GemmAcc(right, transpose(b), transpose(a))
		return allClose(left, right, 1e-10, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickConcatSplitIdentity(t *testing.T) {
	f := func(seed uint64, rs, c1s, c2s uint8) bool {
		rows, c1 := shapeFromSeeds(rs, c1s)
		c2, _ := shapeFromSeeds(c2s, 1)
		r := rng.New(seed)
		a := randomMatrix(r, rows, c1)
		b := randomMatrix(r, rows, c2)
		cat := New(rows, c1+c2)
		ConcatCols(cat, a, b)
		a2, b2 := New(rows, c1), New(rows, c2)
		SplitCols(cat, a2, b2)
		return a2.Equal(a) && b2.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSigmoidBounded(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		y := Sigmoid(x)
		return y >= 0 && y <= 1 && !math.IsNaN(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSoftmaxIsDistribution(t *testing.T) {
	f := func(seed uint64, rs, cs uint8) bool {
		rows, cols := shapeFromSeeds(rs, cs)
		m := randomMatrix(rng.New(seed), rows, cols)
		ScaleInPlace(m, 50) // stress the stability shift
		SoftmaxRows(m)
		for i := 0; i < rows; i++ {
			sum := 0.0
			for _, v := range m.Row(i) {
				if v < 0 || math.IsNaN(v) {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
