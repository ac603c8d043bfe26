package mat

import (
	"math"
	"sort"
	"time"
)

// svdMaxSweeps bounds the one-sided Jacobi iteration.
const svdMaxSweeps = 60

// svdParallelMinN is the minimum column count before the one-sided
// Jacobi sweep fans its disjoint column pairs across the worker pool.
const svdParallelMinN = 48

// SVD computes the thin singular value decomposition a = u*diag(s)*vt
// of an m×n matrix using the one-sided Jacobi method. With k = min(m,n),
// u is m×k with orthonormal columns, s has k non-negative entries in
// descending order, and vt is k×n with orthonormal rows.
//
// One-sided Jacobi applies plane rotations to pairs of columns until all
// columns are mutually orthogonal; it is simple, backward stable, and
// achieves high relative accuracy, which matters because Frequent
// Directions subtracts the smallest retained singular value. Column
// pairs within a round-robin round are disjoint, so large
// decompositions rotate them concurrently on the shared pool.
func SVD(a *Matrix) (u *Matrix, s []float64, vt *Matrix) {
	start := time.Now()
	defer observeSince(obsKernelSVD, start)
	m, n := a.Dims()
	if m >= n {
		return svdTall(a)
	}
	// Wide matrix: decompose the transpose and swap factors.
	ut, st, vtt := svdTall(a.T())
	return vtt.T(), st, ut.T()
}

// svdTall runs one-sided Jacobi on an m×n matrix with m >= n.
func svdTall(a *Matrix) (u *Matrix, s []float64, vt *Matrix) {
	m, n := a.Dims()
	w := a.Clone()
	v := Eye(n)
	if n == 0 {
		return New(m, 0), nil, New(0, 0)
	}

	if n >= svdParallelMinN && m*n >= parallelThreshold && Workers() > 1 {
		svdSweepsParallel(w, v)
	} else {
		svdSweepsSerial(w, v)
	}

	// Column norms are the singular values; normalized columns form U.
	s = make([]float64, n)
	for j := 0; j < n; j++ {
		var norm float64
		for i := 0; i < m; i++ {
			norm += w.At(i, j) * w.At(i, j)
		}
		s[j] = math.Sqrt(norm)
	}
	// Sort descending.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return s[idx[i]] > s[idx[j]] })

	u = New(m, n)
	vt = New(n, n)
	sorted := make([]float64, n)
	maxS := 0.0
	for _, j := range idx {
		if s[j] > maxS {
			maxS = s[j]
		}
	}
	for newJ, oldJ := range idx {
		sorted[newJ] = s[oldJ]
		if s[oldJ] > 1e-300 && s[oldJ] > 1e-15*maxS {
			inv := 1 / s[oldJ]
			for i := 0; i < m; i++ {
				u.Set(i, newJ, w.At(i, oldJ)*inv)
			}
		}
		for i := 0; i < n; i++ {
			vt.Set(newJ, i, v.At(i, oldJ))
		}
	}
	return u, sorted, vt
}

// svdRotatePair orthogonalizes columns p and q of w (accumulating the
// rotation into v) and reports whether it rotated. It touches only
// those two columns, which is what makes disjoint pairs parallel-safe.
func svdRotatePair(w, v *Matrix, p, q int) bool {
	m, n := w.Dims()
	var alpha, beta, gamma float64 // ‖p‖², ‖q‖², <p,q>
	for i := 0; i < m; i++ {
		wp := w.At(i, p)
		wq := w.At(i, q)
		alpha += wp * wp
		beta += wq * wq
		gamma += wp * wq
	}
	if gamma == 0 {
		return false
	}
	// Orthogonal enough relative to the column scales?
	if math.Abs(gamma) <= 1e-15*math.Sqrt(alpha*beta) {
		return false
	}
	zeta := (beta - alpha) / (2 * gamma)
	var t float64
	if zeta >= 0 {
		t = 1 / (zeta + math.Sqrt(1+zeta*zeta))
	} else {
		t = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
	}
	c := 1 / math.Sqrt(1+t*t)
	sn := t * c
	for i := 0; i < m; i++ {
		wp := w.At(i, p)
		wq := w.At(i, q)
		w.Set(i, p, c*wp-sn*wq)
		w.Set(i, q, sn*wp+c*wq)
	}
	for i := 0; i < n; i++ {
		vp := v.At(i, p)
		vq := v.At(i, q)
		v.Set(i, p, c*vp-sn*vq)
		v.Set(i, q, sn*vp+c*vq)
	}
	return true
}

// svdSweepsSerial is the classic cyclic pair ordering.
func svdSweepsSerial(w, v *Matrix) {
	n := w.ColsN
	for sweep := 0; sweep < svdMaxSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				if svdRotatePair(w, v, p, q) {
					rotated = true
				}
			}
		}
		if !rotated {
			break
		}
	}
}

// svdSweepsParallel runs the round-robin ordering; the pairs of one
// round touch disjoint columns, so each round fans out over the pool.
// Unlike the two-sided eigensolver no phase split is needed — a
// one-sided rotation reads and writes only its own two columns.
func svdSweepsParallel(w, v *Matrix) {
	n := w.ColsN
	np := n
	if np%2 == 1 {
		np++
	}
	players := make([]int, np)
	for i := range players {
		players[i] = i
	}
	if np > n {
		players[np-1] = -1
	}
	half := np / 2
	rotatedPair := make([]bool, half)
	for sweep := 0; sweep < svdMaxSweeps; sweep++ {
		rotated := false
		for round := 0; round < np-1; round++ {
			ParallelFor(half, 1, func(lo, hi int) {
				for k := lo; k < hi; k++ {
					p, q := players[k], players[np-1-k]
					if p < 0 || q < 0 {
						rotatedPair[k] = false
						continue
					}
					if p > q {
						p, q = q, p
					}
					rotatedPair[k] = svdRotatePair(w, v, p, q)
				}
			})
			for _, r := range rotatedPair {
				if r {
					rotated = true
				}
			}
			rotatePlayers(players)
		}
		if !rotated {
			break
		}
	}
}

// rotatePlayers advances the round-robin schedule: index 0 is fixed,
// the rest rotate one position.
func rotatePlayers(players []int) {
	np := len(players)
	last := players[np-1]
	copy(players[2:], players[1:np-1])
	players[1] = last
}

// SVDGram computes the thin SVD of a short-and-wide m×d matrix
// (m << d) through the m×m Gram matrix G = a*aᵀ: eigendecomposing G
// gives U and Σ², and the right singular vectors follow from
// vt = Σ⁻¹ Uᵀ a. It never forms any d×d object, so it is the rotation
// kernel used by Frequent Directions on 2-megapixel-wide buffers.
//
// Rows of vt whose singular value is numerically zero (relative to the
// largest) are left as zero rows; the FD shrink step multiplies them by
// zero anyway.
func SVDGram(a *Matrix) (u *Matrix, s []float64, vt *Matrix) {
	m, d := a.Dims()
	s = make([]float64, m)
	vt = New(m, d)
	u = New(m, m)
	svdGramCore(a, s, vt, u)
	return u, s, vt
}

// SVDGramTo is SVDGram without the left factor, writing into
// caller-owned storage: sigma must have capacity >= m (it is resized
// and returned) and always receives all m singular values; vt must be
// k×d with k <= m and receives only the top k right singular vectors.
// Frequent Directions reads ℓ of its 2ℓ directions, so asking for k = ℓ
// halves the Σ⁻¹Uᵀa projection, the widest product of the rotation.
// All internal workspace — the Gram matrix, the eigensolver state, and
// the back-substitution coefficients — comes from a process-wide pool,
// so steady-state calls perform zero heap allocations. This is the FD
// rotation entry point.
func SVDGramTo(a *Matrix, sigma []float64, vt *Matrix) []float64 {
	m := a.RowsN
	if cap(sigma) < m {
		sigma = make([]float64, m)
	}
	sigma = sigma[:m]
	svdGramCore(a, sigma, vt, nil)
	return sigma
}

// svdGramCore runs the Gram-trick SVD: s (m entries) and vt (k×d,
// k <= m) are caller storage, u is filled with all m left singular
// vectors when non-nil.
func svdGramCore(a *Matrix, s []float64, vt *Matrix, u *Matrix) {
	start := time.Now()
	m, d := a.Dims()
	k := vt.RowsN
	if k > m || vt.ColsN != d {
		panic("mat: SVDGram vt shape mismatch")
	}
	sc := grabSVDScratch()
	// The eigensolver overwrites the Gram matrix with its eigenvectors,
	// one per row (z = Uᵀ).
	sc.z = ensureMat(sc.z, m, m)
	GramTo(sc.z, a)
	sc.vals = ensureFloats(sc.vals, m)
	sc.e = ensureFloats(sc.e, m)
	eigSymInto(sc.z, sc.vals, sc.e)

	var maxVal float64
	if m > 0 && sc.vals[0] > 0 {
		maxVal = sc.vals[0]
	}
	for i, v := range sc.vals {
		if v < 0 {
			v = 0 // clamp tiny negative eigenvalues from roundoff
		}
		s[i] = math.Sqrt(v)
	}
	// vt = Σ⁻¹ Uᵀ a over the top k directions as one blocked product:
	// coefficient row i is row i of z scaled by 1/σᵢ (zero for
	// numerically zero σᵢ). MulTo zeroes vt, so the sub-tolerance rows
	// come out as the documented zero rows.
	sc.coef = ensureMat(sc.coef, k, m)
	tol := 1e-14 * math.Sqrt(maxVal)
	for i := 0; i < k; i++ {
		row := sc.coef.Row(i)
		if s[i] <= tol {
			for j := range row {
				row[j] = 0
			}
			continue
		}
		inv := 1 / s[i]
		for j, x := range sc.z.Row(i) {
			row[j] = x * inv
		}
	}
	MulTo(vt, sc.coef, a)
	if u != nil {
		for i := 0; i < m; i++ {
			for j, x := range sc.z.Row(i) {
				u.Set(j, i, x)
			}
		}
	}
	releaseSVDScratch(sc)
	observeSince(obsKernelSVDG, start)
}

// TruncateSVD returns the first k columns of u, entries of s, and rows
// of vt. k is clamped to the available rank.
func TruncateSVD(u *Matrix, s []float64, vt *Matrix, k int) (*Matrix, []float64, *Matrix) {
	if k > len(s) {
		k = len(s)
	}
	uk := New(u.RowsN, k)
	for i := 0; i < u.RowsN; i++ {
		copy(uk.Row(i), u.Row(i)[:k])
	}
	sk := append([]float64(nil), s[:k]...)
	vk := New(k, vt.ColsN)
	for i := 0; i < k; i++ {
		copy(vk.Row(i), vt.Row(i))
	}
	return uk, sk, vk
}
