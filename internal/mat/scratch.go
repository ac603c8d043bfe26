package mat

import "sync"

// Pooled scratch for the Gram-trick SVD. One svdScratch carries every
// intermediate the rotation path needs — the m×m Gram matrix (which the
// eigensolver overwrites with its eigenvectors), the eigenvalue and
// off-diagonal buffers, and the back-substitution coefficients — so a
// steady stream of FD rotations reuses the same storage instead of
// allocating ~m² + md floats per rotation and feeding the garbage
// collector at the machine repetition rate.

type svdScratch struct {
	z    *Matrix   // m×m Gram matrix, then its eigenvectors as rows
	coef *Matrix   // k×m Σ⁻¹Uᵀ coefficients
	vals []float64 // eigenvalues
	e    []float64 // tridiagonal off-diagonal
}

var svdScratchPool = sync.Pool{
	New: func() interface{} { return &svdScratch{} },
}

func grabSVDScratch() *svdScratch {
	return svdScratchPool.Get().(*svdScratch)
}

func releaseSVDScratch(sc *svdScratch) {
	svdScratchPool.Put(sc)
}

// ensureMat returns m resized to r×c with compact stride, reusing its
// backing array when capacity allows (contents are unspecified).
func ensureMat(m *Matrix, r, c int) *Matrix {
	if m == nil || cap(m.Data) < r*c {
		return New(r, c)
	}
	m.RowsN, m.ColsN, m.Stride = r, c, c
	m.Data = m.Data[:r*c]
	return m
}

// ensureFloats returns s resized to n, reusing capacity when possible
// (contents are unspecified).
func ensureFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
