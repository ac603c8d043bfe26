package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"arams/internal/rng"
)

// eigTolC is the constant c in the c·n·ε·‖G‖ bounds the eigensolver is
// held to: residual, eigenvalue agreement with the Jacobi oracle, and
// (without the ‖G‖ factor) orthonormality.
const eigTolC = 8

// checkEigSym asserts that (vals, v) from EigSym is a valid
// eigendecomposition of g and agrees with the RefEigSym oracle:
// ‖GV − VΛ‖_F ≤ c·n·ε·‖G‖_F, ‖VᵀV − I‖_F ≤ c·n·ε, descending values,
// and every eigenvalue within c·n·ε·‖G‖_F of the oracle's.
func checkEigSym(t *testing.T, name string, g *Matrix) {
	t.Helper()
	n := g.RowsN
	vals, v := EigSym(g)
	if len(vals) != n || v.RowsN != n || v.ColsN != n {
		t.Fatalf("%s: EigSym shapes: %d vals, v %dx%d for n=%d", name, len(vals), v.RowsN, v.ColsN, n)
	}
	if n == 0 {
		return
	}
	eps := 0x1p-52
	norm := g.FrobeniusNorm()
	tol := eigTolC * float64(n) * eps * norm

	for i := 1; i < n; i++ {
		if vals[i] > vals[i-1] {
			t.Fatalf("%s: eigenvalues not descending at %d: %g > %g", name, i, vals[i], vals[i-1])
		}
	}
	resid := Mul(g, v)
	resid.Sub(Mul(v, Diag(vals)))
	if r := resid.FrobeniusNorm(); r > tol {
		t.Fatalf("%s: ‖GV − VΛ‖ = %g > %g (‖G‖ = %g)", name, r, tol, norm)
	}
	orth := Mul(v.T(), v)
	orth.Sub(Eye(n))
	if o := orth.FrobeniusNorm(); o > eigTolC*float64(n)*eps {
		t.Fatalf("%s: ‖VᵀV − I‖ = %g > %g", name, o, eigTolC*float64(n)*eps)
	}
	ref, _ := RefEigSym(g)
	for i := range vals {
		if diff := math.Abs(vals[i] - ref[i]); diff > tol {
			t.Fatalf("%s: eigenvalue %d = %.17g, oracle %.17g (|Δ| = %g > %g)", name, i, vals[i], ref[i], diff, tol)
		}
	}
}

// symmetricFrom returns (a + aᵀ)/2.
func symmetricFrom(a *Matrix) *Matrix {
	s := New(a.RowsN, a.RowsN)
	for i := 0; i < a.RowsN; i++ {
		for j := 0; j < a.RowsN; j++ {
			s.Set(i, j, (a.At(i, j)+a.At(j, i))/2)
		}
	}
	return s
}

// withSpectrum returns Q·diag(vals)·Qᵀ for a random orthogonal Q.
func withSpectrum(vals []float64, g *rng.RNG) *Matrix {
	n := len(vals)
	q := RandOrthonormalCols(n, n, g)
	return symmetricFrom(Mul(q, Mul(Diag(vals), q.T())))
}

// postRotationGram is the Gram matrix an FD rotation sees: a diagonal
// ℓ×ℓ top block (the shrunk sketch, √(σᵢ²−δ) on orthogonal rows) above
// m−ℓ freshly appended rows.
func postRotationGram(ell, m, d int, g *rng.RNG) *Matrix {
	b := New(m, d)
	basis := RandOrthonormalCols(d, ell, g).T()
	for i := 0; i < ell; i++ {
		s := math.Sqrt(float64(ell-i)) * 10
		for j, x := range basis.Row(i) {
			b.Set(i, j, s*x)
		}
	}
	for i := ell; i < m; i++ {
		for j := 0; j < d; j++ {
			b.Set(i, j, g.Norm())
		}
	}
	return Gram(b)
}

func TestEigSymMatchesReference(t *testing.T) {
	g := rng.New(301)
	for _, n := range []int{0, 1, 2, 3, 50, 100} {
		cases := map[string]*Matrix{
			"zero": New(n, n),
		}
		diag := make([]float64, n)
		for i := range diag {
			diag[i] = g.Norm() * 100
		}
		cases["diagonal"] = Diag(diag)
		cases["symmetric"] = symmetricFrom(RandGaussian(n, n, g))
		if n > 0 {
			cases["gram"] = Gram(RandGaussian(n, n+7, g))
			// Eigenvalues in clusters of three equal values.
			rep := make([]float64, n)
			for i := range rep {
				rep[i] = float64(1 + i/3)
			}
			cases["repeated"] = withSpectrum(rep, g)
			// Gram of duplicated rows: rank ⌈n/2⌉, the rest exact zeros.
			half := RandGaussian((n+1)/2, 3*n+1, g)
			dup := New(n, half.ColsN)
			for i := 0; i < n; i++ {
				copy(dup.Row(i), half.Row(i/2))
			}
			cases["duplicated-rows"] = Gram(dup)
		}
		if n >= 2 {
			cases["post-rotation"] = postRotationGram(n/2, n, 4*n, g)
		}
		for name, m := range cases {
			checkEigSym(t, fmt.Sprintf("n=%d %s", n, name), m)
		}
	}
}

func TestEigSymDoesNotModifyInput(t *testing.T) {
	a := Gram(RandGaussian(9, 20, rng.New(302)))
	orig := a.Clone()
	EigSym(a)
	if !a.Equal(orig, 0) {
		t.Fatal("EigSym modified its input")
	}
}

func TestEigSymIntoAllocatesNothing(t *testing.T) {
	g := Gram(RandGaussian(50, 200, rng.New(303)))
	z := New(50, 50)
	vals := make([]float64, 50)
	e := make([]float64, 50)
	allocs := testing.AllocsPerRun(20, func() {
		z.CopyFrom(g)
		eigSymInto(z, vals, e)
	})
	if allocs != 0 {
		t.Fatalf("eigSymInto allocated %v times per call, want 0", allocs)
	}
}

// FuzzEigSym decodes a small symmetric matrix from the input and holds
// EigSym to the same residual/orthonormality/oracle bounds as the
// differential test. Inputs flagged non-finite only have to return
// without panicking or spinning.
func FuzzEigSym(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0})
	f.Add([]byte{5, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{4, 200, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{2, 0x80, 0xff, 0x7f, 0x00, 0x80, 0x01, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0] % 13)
		// Scale exponent in [−40, 40]; the high bit plants a non-finite
		// entry.
		exp := int(data[1]&0x7f)%81 - 40
		nonFinite := data[1]&0x80 != 0
		data = data[2:]
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				var x float64
				if len(data) >= 2 {
					x = math.Ldexp(float64(int16(binary.LittleEndian.Uint16(data))), exp)
					data = data[2:]
				}
				a.Set(i, j, x)
				a.Set(j, i, x)
			}
		}
		if nonFinite {
			if n == 0 {
				return
			}
			a.Set(n-1, 0, math.NaN())
			a.Set(0, n-1, math.Inf(1))
			EigSym(a)
			return
		}
		checkEigSym(t, fmt.Sprintf("n=%d exp=%d", n, exp), a)
	})
}
