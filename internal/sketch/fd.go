// Package sketch implements the paper's matrix-sketching algorithms:
// Frequent Directions (Ghashami et al. 2016) in its fast 2ℓ-buffer
// form, the Rank-Adaptive Frequent Directions variant (Algorithm 2),
// the probe-based reconstruction-error heuristic (Algorithm 1),
// priority sampling (Duffield et al. 2007), and the combined ARAMS
// algorithm (Algorithm 3). Sketches are mergeable summaries, which is
// the property the tree-merge parallelization in package parallel
// relies on.
//
// Data orientation follows the Go convention used throughout this
// repository: rows are samples, columns are features, so a sketch of an
// n×d stream is an ℓ×d matrix B with ‖AᵀA − BᵀB‖₂ ≤ ‖A‖_F²/ℓ.
package sketch

import (
	"fmt"
	"math"

	"arams/internal/mat"
	"arams/internal/obs"
)

// Sketch-health observability. Rotations happen once every ℓ appended
// rows (never per row), so the atomic adds below are off the per-row
// hot path. The ℓ gauge is last-writer-wins across concurrent shards:
// a live view of "a current sketch rank", exact when one sketch is
// active (the Monitor case).
var (
	obsRotations   = obs.Default().Counter("arams_sketch_rotations_total")
	obsShrinkDelta = obs.Default().Counter("arams_sketch_shrink_delta_total")
	obsMerges      = obs.Default().Counter("arams_sketch_merges_total")
	obsGrows       = obs.Default().Counter("arams_sketch_rank_grow_events_total")
	obsEllGauge    = obs.Default().Gauge("arams_sketch_ell")
)

// SVDBackend selects the factorization used in the FD rotation step.
type SVDBackend int

const (
	// GramSVD eigendecomposes the small 2ℓ×2ℓ Gram matrix BBᵀ — the
	// fast path for wide buffers (default).
	GramSVD SVDBackend = iota
	// JacobiSVD runs a one-sided Jacobi SVD directly on the buffer;
	// slower but maximally accurate, used for cross-validation.
	JacobiSVD
)

// Options configures a FrequentDirections sketch.
type Options struct {
	// Backend selects the SVD implementation for rotations.
	Backend SVDBackend
}

// FrequentDirections maintains a fast-FD sketch: a 2ℓ×d buffer that is
// shrunk to ℓ nonzero rows by one SVD every ℓ appended rows.
type FrequentDirections struct {
	ell  int
	d    int
	opts Options

	buffer   *mat.Matrix // 2ℓ×d
	nextZero int         // index of the next zero row in buffer

	rotations  int     // number of shrink steps performed (for accounting)
	seen       int     // number of data rows appended
	totalDelta float64 // cumulative shrinkage Σδ across rotations
	deltaMark  float64 // Σδ at the last MarkDelta (not persisted)
	frobMass   float64 // cumulative ‖A‖_F² of the summarized stream

	// Last rotation's spectrum and right singular vectors, reused by
	// the rank-adaptation heuristic so the extra SVD the paper warns
	// about is never needed.
	lastSigma []float64
	lastVt    *mat.Matrix
	// lastDelta is the shrinkage the last rotation subtracted from
	// lastSigma² (zero for a Basis-time decomposition, which does not
	// shrink), so Basis can count the directions the sketch still holds.
	lastDelta float64
	// dirty records that the buffer changed (Append/Grow/Merge) after
	// lastSigma/lastVt were computed, so Basis must re-decompose
	// instead of serving the stale factors.
	dirty bool

	// Owned storage reused across rotations so the steady-state rotate
	// path performs zero heap allocations: vtBuf backs lastVt on the
	// Gram path, filledView is the reusable header for the occupied
	// buffer prefix.
	vtBuf      mat.Matrix
	filledView mat.Matrix
}

// NewFrequentDirections creates a sketch with ℓ retained directions
// over d features.
func NewFrequentDirections(ell, d int, opts Options) *FrequentDirections {
	if ell <= 0 || d <= 0 {
		panic(fmt.Sprintf("sketch: invalid dimensions ℓ=%d d=%d", ell, d))
	}
	return &FrequentDirections{
		ell:    ell,
		d:      d,
		opts:   opts,
		buffer: mat.New(2*ell, d),
	}
}

// Ell returns the current number of retained directions.
func (fd *FrequentDirections) Ell() int { return fd.ell }

// Dim returns the feature dimension d.
func (fd *FrequentDirections) Dim() int { return fd.d }

// Rotations returns how many SVD shrink steps have run; the
// parallelization experiments count these to show the tree merge's
// logarithmic rotation count.
func (fd *FrequentDirections) Rotations() int { return fd.rotations }

// Seen returns the number of rows appended so far.
func (fd *FrequentDirections) Seen() int { return fd.seen }

// Append adds one data row to the sketch, rotating if the buffer is
// full.
func (fd *FrequentDirections) Append(row []float64) {
	if len(row) != fd.d {
		panic(fmt.Sprintf("sketch: row length %d != d=%d", len(row), fd.d))
	}
	if fd.nextZero == fd.buffer.RowsN {
		fd.rotate()
	}
	copy(fd.buffer.Row(fd.nextZero), row)
	fd.nextZero++
	fd.seen++
	fd.frobMass += mat.Norm2Sq(row)
	fd.dirty = true
}

// AppendMatrix adds every row of x to the sketch.
func (fd *FrequentDirections) AppendMatrix(x *mat.Matrix) {
	for i := 0; i < x.RowsN; i++ {
		fd.Append(x.Row(i))
	}
}

// rotate performs the fast-FD shrink: SVD the buffer, subtract σ_ℓ²
// from all squared singular values, and rewrite the buffer as
// √(Σ²−δI)·Vᵀ with the last ℓ rows zeroed.
func (fd *FrequentDirections) rotate() {
	filled := fd.filled(fd.nextZero)
	var sigma []float64
	var vt *mat.Matrix
	switch fd.opts.Backend {
	case JacobiSVD:
		_, sigma, vt = mat.SVD(filled)
	default:
		// Pooled Gram-trick path: sigma and vt live in fd-owned storage
		// reused across rotations, so the steady-state shrink performs
		// zero heap allocations. Only the ℓ directions the shrink keeps
		// are projected out; sigma still carries the full spectrum for
		// σ_ℓ.
		vt = fd.ensureVtBuf(min(fd.ell, filled.RowsN))
		sigma = mat.SVDGramTo(filled, fd.lastSigma[:0], vt)
	}

	var delta float64
	if fd.ell < len(sigma) {
		delta = sigma[fd.ell] * sigma[fd.ell]
	}
	fd.totalDelta += delta
	fd.buffer.Zero()
	keep := min(fd.ell, len(sigma))
	for i := 0; i < keep; i++ {
		s2 := sigma[i]*sigma[i] - delta
		if s2 <= 0 {
			break // spectrum is descending; the rest are zero too
		}
		s := math.Sqrt(s2)
		dst := fd.buffer.Row(i)
		src := vt.Row(i)
		for j := range dst {
			dst[j] = s * src[j]
		}
	}
	fd.nextZero = fd.ell
	fd.rotations++
	fd.lastSigma = sigma
	fd.lastVt = vt
	fd.lastDelta = delta
	// The rewritten buffer is √(Σ²−δI)·Vᵀ, whose right singular vectors
	// are exactly the rows of vt we just computed — the factors are
	// current again.
	fd.dirty = false
	obsRotations.Inc()
	obsShrinkDelta.Add(delta)
	obsEllGauge.SetInt(fd.ell)
}

// Compact forces a final rotation if more than ℓ rows are occupied, so
// that the sketch fits in ℓ rows. It is called automatically by Sketch.
func (fd *FrequentDirections) Compact() {
	if fd.nextZero > fd.ell {
		fd.rotate()
	}
}

// Sketch returns the current ℓ×d sketch matrix B (a copy). Rows beyond
// the retained directions are zero.
func (fd *FrequentDirections) Sketch() *mat.Matrix {
	fd.Compact()
	out := mat.New(fd.ell, fd.d)
	for i := 0; i < min(fd.ell, fd.nextZero); i++ {
		copy(out.Row(i), fd.buffer.Row(i))
	}
	return out
}

// Delta returns the cumulative shrinkage Σδ applied across rotations —
// the total squared-singular-value mass subtracted from every retained
// direction so far. By the Frequent Directions guarantee (Liberty 2013)
// it certifies ‖AᵀA − BᵀB‖₂ ≤ Σδ online, and the mergeability result of
// Ghashami et al. makes the certificate compose additively under Merge.
func (fd *FrequentDirections) Delta() float64 { return fd.totalDelta }

// MarkDelta records the current cumulative shrinkage Σδ as the
// reference point for DeltaSinceMark. The engine's adaptive reconcile
// controller calls it when the global sketch is rebuilt, so the
// marginal shrinkage accumulated since then measures how stale the
// cached global certificate has become. The mark is bookkeeping, not
// sketch state: it is not persisted by State/NewFromState and resets to
// zero on restore.
func (fd *FrequentDirections) MarkDelta() { fd.deltaMark = fd.totalDelta }

// DeltaSinceMark returns the shrinkage Σδ accumulated since the last
// MarkDelta call (or since construction). It never decreases between
// marks because totalDelta is monotone.
func (fd *FrequentDirections) DeltaSinceMark() float64 { return fd.totalDelta - fd.deltaMark }

// FrobMass returns the accumulated squared Frobenius norm ‖A‖_F² of the
// stream the sketch summarizes (merge-aware: merging adds the other
// stream's mass, not the mass of its compressed sketch rows). It scales
// Delta into the relative certificate Σδ/‖A‖_F² and reproduces the
// a-priori bound ‖A‖_F²/ℓ.
func (fd *FrequentDirections) FrobMass() float64 { return fd.frobMass }

// CompensatedCovErr is the covariance error of the δ-compensated
// estimate AᵀA ≈ BᵀB + Σδ·I (the "FD with compensation" variant of
// Desai, Ghashami & Phillips 2016). FD always underestimates the
// covariance by between 0 and Σδ in every direction, so adding half the
// accumulated shrinkage back roughly halves the worst-case error; this
// helper measures the error of the fully-compensated estimator against
// data a.
func (fd *FrequentDirections) CompensatedCovErr(a *mat.Matrix, fraction float64) float64 {
	b := fd.Sketch()
	comp := fraction * fd.totalDelta
	// Power iteration on v ↦ Aᵀ(Av) − Bᵀ(Bv) − comp·v.
	d := a.ColsN
	v := make([]float64, d)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(d))
	}
	var lambda float64
	for it := 0; it < 200; it++ {
		av := mat.MulVec(a, v)
		w := mat.MulTVec(a, av)
		bv := mat.MulVec(b, v)
		btbv := mat.MulTVec(b, bv)
		for i := range w {
			w[i] -= btbv[i] + comp*v[i]
		}
		norm := mat.Norm2(w)
		if norm == 0 {
			return 0
		}
		for i := range w {
			w[i] /= norm
		}
		if it > 4 && math.Abs(norm-lambda) <= 1e-10*math.Max(norm, 1e-300) {
			return norm
		}
		lambda = norm
		v = w
	}
	return lambda
}

// Basis returns the top-k right singular vectors of the sketch as a
// k×d matrix with orthonormal rows — the PCA basis used to project data
// into latent space. k is clamped to the numerical rank of the sketch.
func (fd *FrequentDirections) Basis(k int) *mat.Matrix {
	fd.Compact()
	if fd.lastVt == nil || fd.dirty {
		// Either no decomposition exists yet, or rows were appended since
		// the last one without filling the buffer (Compact only rotates
		// past ℓ occupied rows). Serving the old factors here was the
		// stale-basis bug: a Basis call, then fewer than ℓ appended rows,
		// then a second Basis call returned a basis ignoring those rows.
		// Recompute from the live buffer instead.
		filled := fd.filled(max(fd.nextZero, 1))
		vt := fd.ensureVtBuf(filled.RowsN)
		fd.lastSigma = mat.SVDGramTo(filled, fd.lastSigma[:0], vt)
		fd.lastVt = vt
		fd.lastDelta = 0
		fd.dirty = false
	}
	// Count the rank on the post-shrink spectrum σᵢ² − δ the sketch
	// actually holds, over the rows of Vᵀ that exist: the pre-shrink
	// spectrum also counts σ_ℓ and its ties, which the shrink zeroed.
	// The Gram-trick SVD squares the condition number, so roundoff noise
	// sits near 1e-8·σmax; anything below 1e-6·σmax is numerically zero
	// for basis purposes.
	rank := 0
	var tol float64
	if len(fd.lastSigma) > 0 {
		tol = 1e-6 * fd.lastSigma[0]
	}
	for ; rank < fd.ell && rank < fd.lastVt.RowsN; rank++ {
		if s := fd.lastSigma[rank]; s*s-fd.lastDelta <= tol*tol {
			break // descending spectrum: the rest are gone too
		}
	}
	if k > rank {
		k = rank
	}
	if k == 0 {
		return mat.New(0, fd.d)
	}
	out := mat.New(k, fd.d)
	for i := 0; i < k; i++ {
		copy(out.Row(i), fd.lastVt.Row(i))
	}
	return out
}

// Merge folds another sketch into fd by stacking other's rows into the
// buffer and rotating — exactly the mergeable-summary construction of
// Ghashami et al. The two sketches must have the same feature dimension.
// If other retains more directions, fd grows to match before merging so
// no mass is dropped.
func (fd *FrequentDirections) Merge(other *FrequentDirections) {
	if fd.d != other.d {
		panic("sketch: Merge dimension mismatch")
	}
	if other.ell > fd.ell {
		fd.Grow(other.ell - fd.ell)
	}
	b := other.Sketch()
	appended := 0
	var appendedMass float64
	for i := 0; i < b.RowsN; i++ {
		row := b.Row(i)
		n2 := mat.Norm2Sq(row)
		if n2 == 0 {
			continue // zero rows between rotations would dilute accuracy
		}
		fd.Append(row)
		appended++
		appendedMass += n2
	}
	// Append counted sketch rows as data rows; replace that with the
	// true number of underlying samples (and the true stream energy)
	// the other sketch summarizes.
	fd.seen += other.seen - appended
	fd.frobMass += other.frobMass - appendedMass
	fd.rotations += other.rotations
	fd.totalDelta += other.totalDelta
	obsMerges.Inc()
}

// Grow increases the number of retained directions by dl, extending the
// buffer. Existing sketch content is preserved.
func (fd *FrequentDirections) Grow(dl int) {
	if dl <= 0 {
		return
	}
	newEll := fd.ell + dl
	nb := mat.New(2*newEll, fd.d)
	for i := 0; i < fd.nextZero; i++ {
		copy(nb.Row(i), fd.buffer.Row(i))
	}
	fd.buffer = nb
	fd.ell = newEll
	fd.dirty = true
	obsGrows.Inc()
	obsEllGauge.SetInt(fd.ell)
}

// filled returns an m×d view of the occupied buffer prefix through a
// reusable header, so the rotation path allocates nothing.
func (fd *FrequentDirections) filled(m int) *mat.Matrix {
	fd.filledView = mat.Matrix{
		RowsN:  m,
		ColsN:  fd.d,
		Stride: fd.buffer.Stride,
		Data:   fd.buffer.Data[:(m-1)*fd.buffer.Stride+fd.d],
	}
	return &fd.filledView
}

// ensureVtBuf resizes the owned right-singular-vector buffer to m×d,
// reusing its backing array when capacity allows. It allocates at the
// full 2ℓ row capacity on first use so later rotations never grow it.
func (fd *FrequentDirections) ensureVtBuf(m int) *mat.Matrix {
	if cap(fd.vtBuf.Data) < m*fd.d {
		rows := max(m, 2*fd.ell)
		fd.vtBuf = mat.Matrix{
			RowsN:  rows,
			ColsN:  fd.d,
			Stride: fd.d,
			Data:   make([]float64, rows*fd.d),
		}
	}
	fd.vtBuf.RowsN, fd.vtBuf.ColsN, fd.vtBuf.Stride = m, fd.d, fd.d
	fd.vtBuf.Data = fd.vtBuf.Data[:m*fd.d]
	return &fd.vtBuf
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
