package sketch

import (
	"math"
	"testing"
	"testing/quick"

	"arams/internal/mat"
	"arams/internal/rng"
	"arams/internal/synth"
)

func gaussData(n, d int, seed uint64) *mat.Matrix {
	return mat.RandGaussian(n, d, rng.New(seed))
}

func TestFDCovarianceBound(t *testing.T) {
	// The headline FD guarantee: ‖AᵀA − BᵀB‖₂ ≤ ‖A‖_F² / ℓ.
	for _, tc := range []struct{ n, d, ell int }{
		{100, 30, 5}, {200, 50, 10}, {150, 40, 20},
	} {
		a := gaussData(tc.n, tc.d, 1)
		fd := NewFrequentDirections(tc.ell, tc.d, Options{})
		fd.AppendMatrix(a)
		b := fd.Sketch()
		err := CovErr(a, b)
		bound := FDBound(a, tc.ell)
		if err > bound*(1+1e-9) {
			t.Errorf("n=%d d=%d ℓ=%d: CovErr %v exceeds bound %v", tc.n, tc.d, tc.ell, err, bound)
		}
	}
}

func TestFDShrinkageDomination(t *testing.T) {
	// FD shrinks, never inflates: AᵀA − BᵀB must be PSD. Check via
	// Rayleigh quotients on random directions.
	a := gaussData(120, 25, 2)
	fd := NewFrequentDirections(8, 25, Options{})
	fd.AppendMatrix(a)
	b := fd.Sketch()
	g := rng.New(3)
	for trial := 0; trial < 50; trial++ {
		v := make([]float64, 25)
		for i := range v {
			v[i] = g.Norm()
		}
		av := mat.MulVec(a, v)
		bv := mat.MulVec(b, v)
		diff := mat.Norm2Sq(av) - mat.Norm2Sq(bv)
		if diff < -1e-8*mat.Norm2Sq(av) {
			t.Fatalf("trial %d: vᵀ(AᵀA−BᵀB)v = %v < 0 — sketch inflated a direction", trial, diff)
		}
	}
}

func TestFDLowRankExactRecovery(t *testing.T) {
	// If the data has rank r < ℓ, FD recovers its row space exactly:
	// projection error onto the sketch basis is ~0.
	ds := synth.Generate(synth.Params{N: 80, D: 40, Rank: 5, Decay: Exponential(), Seed: 4})
	fd := NewFrequentDirections(10, 40, Options{})
	fd.AppendMatrix(ds.A)
	basis := fd.Basis(5)
	rel := RelProjErr(ds.A, basis)
	if rel > 1e-10 {
		t.Fatalf("rank-5 data, ℓ=10: relative projection error %v", rel)
	}
}

// Exponential returns the synth decay constant; tiny helper so test
// intent reads clearly.
func Exponential() synth.Decay { return synth.Exponential }

func TestFDSketchShape(t *testing.T) {
	fd := NewFrequentDirections(6, 17, Options{})
	fd.AppendMatrix(gaussData(50, 17, 5))
	b := fd.Sketch()
	if r, c := b.Dims(); r != 6 || c != 17 {
		t.Fatalf("sketch shape %d×%d, want 6×17", r, c)
	}
	if fd.Seen() != 50 {
		t.Fatalf("Seen = %d", fd.Seen())
	}
}

func TestFDFewerRowsThanEll(t *testing.T) {
	// Fewer rows than ℓ: sketch holds the data verbatim, zero error.
	a := gaussData(4, 10, 6)
	fd := NewFrequentDirections(8, 10, Options{})
	fd.AppendMatrix(a)
	b := fd.Sketch()
	if err := CovErr(a, b); err > 1e-9 {
		t.Fatalf("undersized stream should be exact, CovErr = %v", err)
	}
}

func TestFDZeroRows(t *testing.T) {
	fd := NewFrequentDirections(4, 8, Options{})
	fd.AppendMatrix(mat.New(20, 8)) // all-zero stream
	b := fd.Sketch()
	if b.FrobeniusNorm() != 0 {
		t.Fatal("zero stream produced nonzero sketch")
	}
	if b.HasNaN() {
		t.Fatal("zero stream produced NaN")
	}
}

func TestFDBackendsAgree(t *testing.T) {
	a := gaussData(100, 30, 7)
	fdG := NewFrequentDirections(8, 30, Options{Backend: GramSVD})
	fdJ := NewFrequentDirections(8, 30, Options{Backend: JacobiSVD})
	fdG.AppendMatrix(a)
	fdJ.AppendMatrix(a)
	eG := CovErr(a, fdG.Sketch())
	eJ := CovErr(a, fdJ.Sketch())
	// The two backends compute the same mathematical rotation; their
	// sketches may differ by roundoff but the errors must be close.
	if math.Abs(eG-eJ) > 1e-6*(1+eJ) {
		t.Fatalf("backend errors diverge: gram %v vs jacobi %v", eG, eJ)
	}
}

func TestFDRotationsCount(t *testing.T) {
	fd := NewFrequentDirections(5, 10, Options{})
	// 2ℓ=10 rows fill the buffer; each further ℓ rows force a rotation.
	fd.AppendMatrix(gaussData(40, 10, 8))
	// Appends: first 10 fill, then rotations occur at each refill.
	if fd.Rotations() == 0 {
		t.Fatal("no rotations recorded")
	}
	got := fd.Rotations()
	want := (40 - 2*5) / 5 // each rotation frees ℓ slots
	if got != want {
		t.Fatalf("Rotations = %d, want %d", got, want)
	}
}

func TestFDAppendWrongLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong row length did not panic")
		}
	}()
	NewFrequentDirections(3, 5, Options{}).Append(make([]float64, 4))
}

func TestMergePreservesBound(t *testing.T) {
	// Merge two sketches of disjoint halves: merged sketch must still
	// satisfy the FD bound for the union (mergeable-summary property).
	d := 25
	a1 := gaussData(80, d, 9)
	a2 := gaussData(80, d, 10)
	ell := 8
	fd1 := NewFrequentDirections(ell, d, Options{})
	fd2 := NewFrequentDirections(ell, d, Options{})
	fd1.AppendMatrix(a1)
	fd2.AppendMatrix(a2)
	fd1.Merge(fd2)
	b := fd1.Sketch()

	all := mat.New(160, d)
	for i := 0; i < 80; i++ {
		copy(all.Row(i), a1.Row(i))
		copy(all.Row(i+80), a2.Row(i))
	}
	err := CovErr(all, b)
	// Merged summaries obey the 2·‖A‖_F²/ℓ mergeable bound.
	bound := 2 * all.FrobeniusNormSq() / float64(ell)
	if err > bound {
		t.Fatalf("merged CovErr %v exceeds mergeable bound %v", err, bound)
	}
	if fd1.Seen() != 160 {
		t.Fatalf("merged Seen = %d, want 160", fd1.Seen())
	}
}

func TestMergeDifferentEll(t *testing.T) {
	d := 12
	small := NewFrequentDirections(4, d, Options{})
	big := NewFrequentDirections(9, d, Options{})
	small.AppendMatrix(gaussData(30, d, 11))
	big.AppendMatrix(gaussData(30, d, 12))
	small.Merge(big)
	if small.Ell() != 9 {
		t.Fatalf("merge did not grow ℓ: %d", small.Ell())
	}
	if small.Sketch().HasNaN() {
		t.Fatal("merged sketch has NaN")
	}
}

func TestMergeDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch merge did not panic")
		}
	}()
	a := NewFrequentDirections(3, 5, Options{})
	b := NewFrequentDirections(3, 6, Options{})
	a.Merge(b)
}

func TestGrowPreservesContent(t *testing.T) {
	d := 10
	fd := NewFrequentDirections(4, d, Options{})
	fd.AppendMatrix(gaussData(20, d, 13))
	before := fd.Sketch().Clone()
	fd.Grow(3)
	if fd.Ell() != 7 {
		t.Fatalf("Ell after grow = %d", fd.Ell())
	}
	after := fd.Sketch()
	// The first 4 rows (old content) are preserved.
	for i := 0; i < 4; i++ {
		for j := 0; j < d; j++ {
			if before.At(i, j) != after.At(i, j) {
				t.Fatal("Grow corrupted sketch content")
			}
		}
	}
}

func TestFDErrorDecreasesWithEll(t *testing.T) {
	a := gaussData(200, 40, 14)
	var prev = math.Inf(1)
	for _, ell := range []int{2, 5, 10, 20} {
		fd := NewFrequentDirections(ell, 40, Options{})
		fd.AppendMatrix(a)
		err := CovErr(a, fd.Sketch())
		if err > prev*1.1 { // allow slight non-monotonic wiggle
			t.Fatalf("ℓ=%d: error %v did not improve on %v", ell, err, prev)
		}
		prev = err
	}
}

func TestFDPropertyQuick(t *testing.T) {
	// Property: for random small streams, the FD bound always holds.
	g := rng.New(99)
	f := func(seed uint16) bool {
		n := 20 + int(seed%64)
		d := 5 + int(seed%11)
		ell := 2 + int(seed%5)
		a := mat.RandGaussian(n, d, g)
		fd := NewFrequentDirections(ell, d, Options{})
		fd.AppendMatrix(a)
		return CovErr(a, fd.Sketch()) <= FDBound(a, ell)*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBasisOrthonormal(t *testing.T) {
	a := gaussData(100, 20, 15)
	fd := NewFrequentDirections(8, 20, Options{})
	fd.AppendMatrix(a)
	for _, k := range []int{1, 4, 8} {
		vt := fd.Basis(k)
		if vt.RowsN != k {
			t.Fatalf("Basis(%d) has %d rows", k, vt.RowsN)
		}
		if !mat.Mul(vt, vt.T()).Equal(mat.Eye(k), 1e-8) {
			t.Fatalf("Basis(%d) rows not orthonormal", k)
		}
	}
}

func TestBasisBeforeRotation(t *testing.T) {
	// Basis must work when fewer than 2ℓ rows were appended (no
	// rotation yet).
	a := gaussData(5, 12, 16)
	fd := NewFrequentDirections(8, 12, Options{})
	fd.AppendMatrix(a)
	vt := fd.Basis(3)
	if vt.RowsN != 3 || vt.HasNaN() {
		t.Fatalf("pre-rotation Basis broken: %d rows", vt.RowsN)
	}
}

func TestBasisClampsToRank(t *testing.T) {
	// Rank-2 data: asking for 10 basis vectors returns at most 2.
	ds := synth.Generate(synth.Params{N: 40, D: 15, Rank: 2, Decay: synth.Exponential, Seed: 17})
	fd := NewFrequentDirections(6, 15, Options{})
	fd.AppendMatrix(ds.A)
	vt := fd.Basis(10)
	if vt.RowsN > 2 {
		t.Fatalf("Basis returned %d rows for rank-2 data", vt.RowsN)
	}
}

func TestBasisReflectsRowsAppendedAfterBasisCall(t *testing.T) {
	// Regression test for the stale-basis bug: a Basis call caches the
	// decomposition, and appending fewer than ℓ further rows never
	// triggers a rotation (Compact only rotates past ℓ occupied rows),
	// so a second Basis call used to serve the cached factors and
	// silently ignore the new rows.
	const ell, d = 8, 30
	fd := NewFrequentDirections(ell, d, Options{})
	row := make([]float64, d)
	for i := 0; i < 3; i++ {
		for j := range row {
			row[j] = 0
		}
		row[i] = 2
		fd.Append(row)
	}
	b1 := fd.Basis(3)
	if b1.RowsN != 3 {
		t.Fatalf("first Basis: %d rows, want 3", b1.RowsN)
	}

	// Fewer than ℓ new rows, all along feature 10 and dominant in norm:
	// the top singular vector of the updated sketch is ±e₁₀.
	for i := 0; i < 3; i++ {
		for j := range row {
			row[j] = 0
		}
		row[10] = 5
		fd.Append(row)
	}
	b2 := fd.Basis(1)
	if b2.RowsN != 1 {
		t.Fatalf("second Basis: %d rows, want 1", b2.RowsN)
	}
	if got := math.Abs(b2.At(0, 10)); got < 0.99 {
		t.Fatalf("stale basis: top direction has |component on feature 10| = %v, want ≈1 — rows appended between Basis calls were ignored", got)
	}
}

func TestBasisReflectsMergeBetweenCalls(t *testing.T) {
	// Merge folds rows in through Append, so it must dirty the cached
	// decomposition exactly like a direct Append does.
	const ell, d = 6, 20
	fd := NewFrequentDirections(ell, d, Options{})
	row := make([]float64, d)
	row[0] = 1
	fd.Append(row)
	_ = fd.Basis(1)

	other := NewFrequentDirections(ell, d, Options{})
	for j := range row {
		row[j] = 0
	}
	row[7] = 9
	other.Append(row)
	fd.Merge(other)

	b := fd.Basis(1)
	if got := math.Abs(b.At(0, 7)); got < 0.99 {
		t.Fatalf("basis ignores merged rows: |component on feature 7| = %v", got)
	}
}

// nonzeroRows counts the rows of b with any nonzero entry.
func nonzeroRows(b *mat.Matrix) int {
	n := 0
	for i := 0; i < b.RowsN; i++ {
		if mat.Norm2Sq(b.Row(i)) > 0 {
			n++
		}
	}
	return n
}

func TestBasisCountsPostShrinkRank(t *testing.T) {
	// Regression test: the rank used to be counted on the pre-shrink
	// spectrum, so after ℓ = 4, 9 Gaussian rows (one rotation, then a
	// Compact-time rotation of 5 rows) Basis(8) returned 5 directions
	// while the sketch holds 4 — the fifth was σ_ℓ, which the shrink
	// subtracts to zero.
	for _, backend := range []SVDBackend{GramSVD, JacobiSVD} {
		fd := NewFrequentDirections(4, 50, Options{Backend: backend})
		fd.AppendMatrix(gaussData(9, 50, 41))
		b := fd.Sketch()
		basis := fd.Basis(8)
		if want := nonzeroRows(b); basis.RowsN != want || want != 4 {
			t.Fatalf("backend %d: Basis(8) has %d rows, sketch holds %d nonzero rows (want 4)", backend, basis.RowsN, want)
		}
		// Every basis direction must carry sketch energy.
		for i := 0; i < basis.RowsN; i++ {
			if e := mat.Norm2(mat.MulVec(b, basis.Row(i))); e <= 1e-6*b.FrobeniusNorm() {
				t.Fatalf("backend %d: basis row %d is outside the sketch (‖B·v‖ = %g)", backend, i, e)
			}
		}
	}
}

func TestBasisDropsDirectionsTiedWithSigmaEll(t *testing.T) {
	// Three orthogonal rows of equal norm with ℓ = 2: the compacting
	// rotation subtracts δ = σ₂² = σ₀², so the sketch is empty and Basis
	// must not report directions it no longer holds.
	fd := NewFrequentDirections(2, 5, Options{})
	for i := 0; i < 3; i++ {
		row := make([]float64, 5)
		row[i] = 3
		fd.Append(row)
	}
	if n := nonzeroRows(fd.Sketch()); n != 0 {
		t.Fatalf("sketch holds %d nonzero rows, want 0", n)
	}
	if basis := fd.Basis(2); basis.RowsN != 0 {
		t.Fatalf("Basis(2) has %d rows for an empty sketch", basis.RowsN)
	}
}
