package mat

import (
	"math"
	"time"
)

// eigMaxIter bounds the implicit-QL iterations spent on one eigenvalue.
// Convergence is cubic, so real inputs take two or three; the cap only
// stops non-finite input from spinning forever.
const eigMaxIter = 64

// EigSym computes the full eigendecomposition of a symmetric n×n matrix
// a: a = v * diag(vals) * vᵀ with the eigenvalues sorted in descending
// order and v's columns the matching orthonormal eigenvectors. The
// input is not modified; only its upper triangle is read.
//
// The solver is Householder tridiagonalization followed by implicit QL
// with Wilkinson shifts (EISPACK tred2/tql2). Its error is backward
// stable — every eigenvalue is exact for a matrix within O(n·ε·‖a‖) of
// a — which is all the Frequent Directions shrink needs: δ = σ_ℓ² is
// subtracted from the whole spectrum, so absolute accuracy relative to
// the largest eigenvalue is the scale that matters. RefEigSym keeps the
// cyclic-Jacobi solver as the test oracle.
func EigSym(a *Matrix) (vals []float64, v *Matrix) {
	n := a.RowsN
	if n != a.ColsN {
		panic("mat: EigSym needs a square matrix")
	}
	z := a.Clone()
	vals = make([]float64, n)
	e := make([]float64, n)
	eigSymInto(z, vals, e)
	return vals, z.T()
}

// eigSymInto eigendecomposes the symmetric matrix z in place: on return
// vals holds the eigenvalues in descending order and row i of z the
// unit eigenvector of vals[i]. e is n floats of workspace. Only the
// upper triangle of z is read. No heap allocations — the pooled FD
// rotation relies on that.
//
// Storing the eigenvectors as rows (z = Vᵀ) is what keeps every O(n³)
// loop unit-stride: with the textbook column layout transposed, the
// Householder updates, the back-accumulation and the QL plane rotations
// all walk rows, and run through the bounds-check-free kernels in
// inner.go.
func eigSymInto(z *Matrix, vals, e []float64) {
	start := time.Now()
	n := z.RowsN
	switch n {
	case 0:
		return
	case 1:
		vals[0] = z.Data[0]
		z.Data[0] = 1
		return
	}
	tred2(z, vals, e)
	tql2(z, vals, e)
	sortEigenpairs(vals, z)
	observeSince(obsKernelEig, start)
}

// tred2 reduces z to symmetric tridiagonal form T = QᵀzQ by Householder
// reflections, leaving T's diagonal in d, its subdiagonal in e[1:], and
// Qᵀ in z. It is EISPACK's tred2 (in the JAMA formulation) with every
// V[a][b] access read as z[b][a].
func tred2(z *Matrix, d, e []float64) {
	n := z.RowsN
	row := func(i int) []float64 { return z.Data[i*z.Stride : i*z.Stride+n] }
	col := func(j, i int) float64 { return z.Data[j*z.Stride+i] }
	for j := 0; j < n; j++ {
		d[j] = col(j, n-1)
	}
	for i := n - 1; i > 0; i-- {
		zi := row(i)
		var scale, h float64
		for _, x := range d[:i] {
			scale += math.Abs(x)
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = col(j, i-1)
				row(j)[i] = 0
				zi[j] = 0
			}
			d[i] = 0
			continue
		}
		// Householder vector of the current row, scaled against
		// under/overflow.
		for k := 0; k < i; k++ {
			d[k] /= scale
			h += d[k] * d[k]
		}
		f := d[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		d[i-1] = f - g
		for j := 0; j < i; j++ {
			e[j] = 0
		}
		// p = A·u over the leading i×i block (upper triangle of z).
		for j := 0; j < i; j++ {
			f = d[j]
			zi[j] = f
			zj := row(j)
			e[j] += zj[j]*f + symvRow(zj[j+1:i], d[j+1:i], e[j+1:i], f)
		}
		f = 0
		for j := 0; j < i; j++ {
			e[j] /= h
			f += e[j] * d[j]
		}
		hh := f / (h + h)
		for j := 0; j < i; j++ {
			e[j] -= hh * d[j]
		}
		// Rank-2 update A ← A − u·qᵀ − q·uᵀ.
		for j := 0; j < i; j++ {
			zj := row(j)
			rank2Row(zj[j:i], e[j:i], d[j:i], d[j], e[j])
			d[j] = zj[i-1]
			zj[i] = 0
		}
		d[i] = h
	}

	// Accumulate the reflections into Qᵀ.
	for i := 0; i < n-1; i++ {
		zi := row(i)
		zi[n-1] = zi[i]
		zi[i] = 1
		u := row(i + 1)[:i+1]
		if h := d[i+1]; h != 0 {
			for k, x := range u {
				d[k] = x / h
			}
			for j := 0; j <= i; j++ {
				zj := row(j)[:i+1]
				axpy(-dotKernel(u, zj), d[:i+1], zj)
			}
		}
		for k := range u {
			u[k] = 0
		}
	}
	for j := 0; j < n; j++ {
		zj := row(j)
		d[j] = zj[n-1]
		zj[n-1] = 0
	}
	row(n - 1)[n-1] = 1
	e[0] = 0
}

// tql2 diagonalizes the symmetric tridiagonal matrix (d, e[1:]) from
// tred2 by implicit QL iteration with Wilkinson shifts, rotating the
// rows of z (Qᵀ) along, so on return d holds the eigenvalues (unsorted)
// and row i of z the eigenvector of d[i].
func tql2(z *Matrix, d, e []float64) {
	n := z.RowsN
	row := func(i int) []float64 { return z.Data[i*z.Stride : i*z.Stride+n] }
	copy(e, e[1:])
	e[n-1] = 0

	const eps = 0x1p-52
	var f, tst1 float64
	for l := 0; l < n; l++ {
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		// Find a negligible subdiagonal element; e[n-1] = 0 stops the
		// scan unless the input is not finite.
		m := l
		for m < n-1 && !(math.Abs(e[m]) <= eps*tst1) {
			m++
		}
		for iter := 0; m > l && iter < eigMaxIter; iter++ {
			// Implicit shift from the leading 2×2 of the unreduced block.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h

			// Implicit QL sweep from m−1 up to l.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			var s, s2 float64
			for i := m - 1; i >= l; i-- {
				c3 = c2
				c2 = c
				s2 = s
				g = c * e[i]
				h = c * p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])
				givensRows(row(i), row(i+1), c, s)
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
			if !(math.Abs(e[l]) > eps*tst1) {
				break
			}
		}
		d[l] += f
		e[l] = 0
	}
}

// sortEigenpairs orders (vals, rows of z) by descending eigenvalue in
// place with a selection sort — no allocation, and n is at most a few
// hundred.
func sortEigenpairs(vals []float64, z *Matrix) {
	n := len(vals)
	for j := 0; j < n; j++ {
		mx := j
		for k := j + 1; k < n; k++ {
			if vals[k] > vals[mx] {
				mx = k
			}
		}
		if mx != j {
			vals[j], vals[mx] = vals[mx], vals[j]
			rj, rm := z.Row(j), z.Row(mx)
			for i := range rj {
				rj[i], rm[i] = rm[i], rj[i]
			}
		}
	}
}
