package mat

import (
	"fmt"
	"testing"

	"arams/internal/rng"
)

func BenchmarkMul(b *testing.B) {
	g := rng.New(1)
	for _, n := range []int{64, 256} {
		x := RandGaussian(n, n, g)
		y := RandGaussian(n, n, g)
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = Mul(x, y)
			}
		})
	}
}

func BenchmarkMulABt(b *testing.B) {
	g := rng.New(2)
	x := RandGaussian(64, 4096, g)
	y := RandGaussian(32, 4096, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MulABt(x, y)
	}
}

func BenchmarkGram(b *testing.B) {
	g := rng.New(3)
	x := RandGaussian(64, 8192, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Gram(x)
	}
}

func BenchmarkQR(b *testing.B) {
	g := rng.New(4)
	x := RandGaussian(256, 64, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = QR(x)
	}
}

// BenchmarkEigSym times the tridiagonal-QL eigensolver against the
// cyclic-Jacobi reference on FD Gram matrices (n = 2ℓ).
func BenchmarkEigSym(b *testing.B) {
	g := rng.New(5)
	for _, n := range []int{50, 100} {
		s := Gram(RandGaussian(n, 4096, g))
		b.Run(fmt.Sprintf("ref_%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = RefEigSym(s)
			}
		})
		b.Run(fmt.Sprintf("ql_%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = EigSym(s)
			}
		})
	}
}

func BenchmarkSVDGramWideBuffer(b *testing.B) {
	g := rng.New(6)
	// The FD rotation shape: 2ℓ×d with d ≫ 2ℓ.
	buf := RandGaussian(64, 16384, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = SVDGram(buf)
	}
}

// BenchmarkGramRotationShape compares the pre-PR reference kernel with
// the cache-blocked kernel on FD-rotation-shaped inputs (2ℓ×d, d ≫ 2ℓ)
// — the shapes behind BENCH_kernels.json.
func BenchmarkGramRotationShape(b *testing.B) {
	g := rng.New(7)
	for _, sh := range [][2]int{{64, 4096}, {128, 4096}, {64, 16384}} {
		a := RandGaussian(sh[0], sh[1], g)
		out := New(sh[0], sh[0])
		b.Run(fmt.Sprintf("ref_%dx%d", sh[0], sh[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = RefGram(a)
			}
		})
		b.Run(fmt.Sprintf("tiled_%dx%d", sh[0], sh[1]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				GramTo(out, a)
			}
		})
	}
}

// BenchmarkSVDGramRotation measures the full rotation decomposition:
// the reference allocating path versus the pooled SVDGramTo. The pooled
// variant must report zero allocs/op — that is the acceptance bar for
// the FD hot path.
func BenchmarkSVDGramRotation(b *testing.B) {
	g := rng.New(8)
	a := RandGaussian(64, 4096, g)
	sigma := make([]float64, 64)
	vt := New(64, 4096)
	b.Run("ref_64x4096", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _, _ = RefSVDGram(a)
		}
	})
	b.Run("pooled_64x4096", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sigma = SVDGramTo(a, sigma, vt)
		}
	})
}

func BenchmarkMulABtProjectionShape(b *testing.B) {
	g := rng.New(9)
	// The PCA projection shape: window×d times k×d transposed.
	x := RandGaussian(1024, 4096, g)
	basis := RandGaussian(20, 4096, g)
	dst := New(1024, 20)
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = RefMulABt(x, basis)
		}
	})
	b.Run("tiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MulABtTo(dst, x, basis)
		}
	})
}
