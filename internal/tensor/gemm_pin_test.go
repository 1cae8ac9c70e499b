package tensor

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"bpar/internal/rng"
)

// pinInputs is one seeded operand set shared by every GEMM entry point. The
// sizes are odd on purpose: k=51 ends every dot in a 3-element remainder,
// n=70 and gw=71 leave a second block of one quad plus a 2- or 3-wide
// remainder (the j+4<=jMax / p+4<=kMax / i+4<=iMax tails), and the gate
// gradient g carries an all-zero quad, a lone zero in the remainder and a
// whole zero row so both zero-skip branches run. The six one-row operands
// of rows1 are the batch-1 projection tiles: one group of four plus two.
type pinInputs[E Elt] struct {
	m, k, n, kb, lo, gLo, gw int

	a, b, bTk, bT, g, w, x *Mat[E]
	as, gs, rows1          []*Mat[E]
}

func newPinInputs[E Elt]() *pinInputs[E] {
	in := &pinInputs[E]{m: 5, k: 51, n: 70, kb: 67, lo: 9, gLo: 3, gw: 71}
	r := rng.New(14)
	mat := func(rows, cols int) *Mat[E] { return ConvertedOf[E](randomMatrix(r, rows, cols)) }
	gate := func() *Mat[E] {
		g := mat(in.m, in.gLo+in.gw+2)
		for j := 8; j < 12; j++ {
			g.Set(1, in.gLo+j, 0)
		}
		g.Set(0, in.gLo+in.gw-1, 0)
		for j := 0; j < g.Cols; j++ {
			g.Set(3, j, 0)
		}
		return g
	}
	in.a, in.b = mat(in.m, in.k), mat(in.k, in.n)
	in.bTk, in.bT = mat(in.n, in.k), mat(in.n, in.kb)
	in.g, in.w, in.x = gate(), mat(in.gw, in.kb), mat(in.m, in.k)
	for s := 0; s < 3; s++ {
		in.as = append(in.as, mat(in.m, in.k))
		in.gs = append(in.gs, gate())
	}
	for s := 0; s < 6; s++ {
		in.rows1 = append(in.rows1, mat(1, in.k))
	}
	return in
}

// dst returns a fresh non-zero destination, identical on every call, so the
// accumulate kernels fold into the same starting bits.
func (in *pinInputs[E]) dst(rows, cols int) *Mat[E] {
	return ConvertedOf[E](randomMatrix(rng.New(9), rows, cols))
}

func (in *pinInputs[E]) dsts(count, rows, cols int) []*Mat[E] {
	r := rng.New(9)
	ds := make([]*Mat[E], count)
	for s := range ds {
		ds[s] = ConvertedOf[E](randomMatrix(r, rows, cols))
	}
	return ds
}

// fingerprint is the FNV-64a hash of the little-endian bit patterns of every
// element of ms, in order.
func fingerprint[E Elt](ms ...*Mat[E]) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, m := range ms {
		for _, v := range m.Data {
			switch x := any(v).(type) {
			case float64:
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
				h.Write(buf[:8])
			case float32:
				binary.LittleEndian.PutUint32(buf[:], math.Float32bits(x))
				h.Write(buf[:4])
			}
		}
	}
	return h.Sum64()
}

// gemmFingerprints runs every public GEMM entry point at element type E on
// the shared inputs and returns the fingerprint of each one's output.
func gemmFingerprints[E Elt]() map[string]uint64 {
	in := newPinInputs[E]()
	m, k, n, lo, gLo, gHi := in.m, in.k, in.n, in.lo, in.gLo, in.gLo+in.gw
	one := func(rows, cols int, run func(d *Mat[E])) uint64 {
		d := in.dst(rows, cols)
		run(d)
		return fingerprint(d)
	}
	many := func(rows, cols int, run func(ds []*Mat[E])) uint64 {
		ds := in.dsts(len(in.as), rows, cols)
		run(ds)
		return fingerprint(ds...)
	}
	rows1 := func(run func(ds []*Mat[E])) uint64 {
		ds := in.dsts(len(in.rows1), 1, n)
		run(ds)
		return fingerprint(ds...)
	}
	return map[string]uint64{
		"GemmAcc":              one(m, n, func(d *Mat[E]) { GemmAcc(d, in.a, in.b) }),
		"MatMulT":              one(m, n, func(d *Mat[E]) { MatMulT(d, in.a, in.bTk) }),
		"GemmTAcc":             one(m, n, func(d *Mat[E]) { GemmTAcc(d, in.a, in.bTk) }),
		"GemmATAcc":            one(in.g.Cols, k, func(d *Mat[E]) { GemmATAcc(d, in.g, in.x) }),
		"GemmTAccCols":         one(m, n, func(d *Mat[E]) { GemmTAccCols(d, in.a, in.bT, lo) }),
		"MatMulTCols":          one(m, n, func(d *Mat[E]) { MatMulTCols(d, in.a, in.bT, lo) }),
		"GemmTAccColsBatch":    many(m, n, func(ds []*Mat[E]) { GemmTAccColsBatch(ds, in.as, in.bT, lo) }),
		"GemmTAccColsBatch/M1": rows1(func(ds []*Mat[E]) { GemmTAccColsBatch(ds, in.rows1, in.bT, lo) }),
		"GemmAccCols":          one(m, k, func(d *Mat[E]) { GemmAccCols(d, in.g, gLo, gHi, in.w, lo) }),
		"MatMulCols":           one(m, k, func(d *Mat[E]) { MatMulCols(d, in.g, gLo, gHi, in.w, lo) }),
		"GemmAccColsBatch":     many(m, k, func(ds []*Mat[E]) { GemmAccColsBatch(ds, in.gs, gLo, gHi, in.w, lo) }),
		"GemmTAccDstCols":      one(m, n+lo+2, func(d *Mat[E]) { GemmTAccDstCols(d, lo, in.a, in.bTk) }),
	}
}

// TestGemmBitPins pins the output bits of all 11 GEMM entry points at both
// element types, plus GemmTAccColsBatch over one-row operands (captured from
// the Go kernels before the vector kernels existed). There is one generic
// implementation per kernel; the float64 constants were captured from the
// hand-written float64 kernels and the float32 constants from their generic
// mirrors before the two were merged (parent of the commit that introduced
// this test), so a kernel edit that moves a single bit of either
// instantiation fails here. The pins hold with the vector kernels off and on.
func TestGemmBitPins(t *testing.T) {
	for _, path := range []string{"go", "vec"} {
		t.Run(path, func(t *testing.T) {
			setVecKernels(t, path == "vec")
			f64, f32 := gemmFingerprints[float64](), gemmFingerprints[float32]()
			if len(f64) != len(gemmPins) || len(f32) != len(gemmPins) {
				t.Fatalf("pin table has %d entries, kernels report %d (f64) / %d (f32)", len(gemmPins), len(f64), len(f32))
			}
			for name, want := range gemmPins {
				if got := f64[name]; got != want.f64 {
					t.Errorf("%s float64: fingerprint %#016x, pinned %#016x", name, got, want.f64)
				}
				if got := f32[name]; got != want.f32 {
					t.Errorf("%s float32: fingerprint %#016x, pinned %#016x", name, got, want.f32)
				}
			}
		})
	}
}

var gemmPins = map[string]struct{ f64, f32 uint64 }{
	"GemmATAcc":            {0x88065dda5ab51956, 0x0d0bac63cf473a1d},
	"GemmAcc":              {0x22698294aad8ad51, 0x3a9789594a5a2754},
	"GemmAccCols":          {0x6ef62c525b90eba7, 0xb2b982936d40dbb4},
	"GemmAccColsBatch":     {0xef7f3d04f3f4e146, 0x38816a6dc8625e3b},
	"GemmTAcc":             {0x2f212f0b565ff56f, 0xdb7251589d4b6dce},
	"GemmTAccCols":         {0x3da3e23e53cc6f69, 0xaea85df92da3a865},
	"GemmTAccColsBatch":    {0xca9304e691a549b4, 0x3ab1a5b1db1ca8f0},
	"GemmTAccColsBatch/M1": {0x2d9d3bb890c33dd9, 0x01111102b5264d83},
	"GemmTAccDstCols":      {0xbbaa0d17ad9659d5, 0xb30ad82056a35ecd},
	"MatMulCols":           {0x5564f1594d93f2c9, 0xd800df00ee2b7f7b},
	"MatMulT":              {0x88424297f7c078e1, 0xe14b15da524097df},
	"MatMulTCols":          {0x8dde54b00afc4dff, 0x37417754a318df74},
}
