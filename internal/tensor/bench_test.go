package tensor

import (
	"fmt"
	"testing"

	"bpar/internal/rng"
)

func benchDims() [][3]int {
	return [][3]int{
		{64, 64, 64},
		{128, 320, 512}, // one LSTM gate GEMM at batch 128, in 64+256, hidden 128
		{256, 512, 1024},
	}
}

func BenchmarkGemmAcc(b *testing.B) {
	for _, d := range benchDims() {
		m, k, n := d[0], d[1], d[2]
		b.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(b *testing.B) {
			r := rng.New(1)
			a := randomMatrix(r, m, k)
			bm := randomMatrix(r, k, n)
			dst := New(m, n)
			b.SetBytes(int64(8 * (m*k + k*n + m*n)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				GemmAcc(dst, a, bm)
			}
		})
	}
}

func BenchmarkMatMulT(b *testing.B) {
	for _, d := range benchDims() {
		m, k, n := d[0], d[1], d[2]
		b.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(b *testing.B) {
			r := rng.New(1)
			a := randomMatrix(r, m, k)
			bT := randomMatrix(r, n, k)
			dst := New(m, n)
			b.SetBytes(int64(8 * (m*k + k*n + m*n)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulT(dst, a, bT)
			}
		})
	}
}

func BenchmarkSigmoidInPlace(b *testing.B) {
	m := randomMatrix(rng.New(1), 128, 1024)
	src := m.Clone()
	b.SetBytes(int64(8 * len(m.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CopyFrom(src)
		SigmoidInPlace(m)
	}
}

func BenchmarkSoftmaxRows(b *testing.B) {
	m := randomMatrix(rng.New(1), 128, 1024)
	src := m.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CopyFrom(src)
		SoftmaxRows(m)
	}
}
