package mat

// Bounds-check-free inner loops for the dense kernels and the symmetric
// eigensolver. Everything in this file is on the multiply-add critical
// path of the FD rotation (2ℓ×d buffers, d up to millions of columns,
// and the 2ℓ×2ℓ eigensolve between them), where a single bounds check
// per element costs a compare+branch against 1–2 FMAs of useful work
// and blocks the instruction scheduler from pipelining the
// accumulator chains.
//
// Two loop shapes survive both the bounds-check prover and the
// benchmark:
//
//   - simple hoisted loops (`b = b[:n]` once, then `for k := 0; k < n`
//     with unit-stride indexing) — the prover eliminates every check as
//     long as the loop is NOT manually unrolled; an `i+4 <= n` stride-4
//     condition makes it lose the `i+3 < len` facts again (measured,
//     not guessed);
//   - the slice-advance idiom (`x, y = x[8:], y[8:]` under
//     `len(x) >= 8 && len(y) >= 8`, bodies indexing a pinned `x[:8]`)
//     for the unrolled kernels — the shrinking-length condition is the
//     one shape the prover eliminates unrolled accesses for, and the
//     8-wide step amortizes the slice-header updates.
//
// CI enforces the invariant: scripts/check_bce.sh compiles the package
// with -gcflags=-d=ssa/check_bce and fails if the compiler reports any
// per-element IsInBounds in this file. Per-call IsSliceInBounds from
// the `[:n]` hoists is allowed — hoisted checks are the point of the
// idiom. When editing, keep every loop in one of the two shapes above
// and re-run the script.
//
// All kernels iterate over the common prefix of their operands; the
// tiled drivers in blocked.go slice operands to the same panel.

// axpy computes y += alpha*x over the common prefix, 8-way unrolled in
// the slice-advance idiom.
func axpy(alpha float64, x, y []float64) {
	for len(x) >= 8 && len(y) >= 8 {
		x8, y8 := x[:8], y[:8]
		y8[0] += alpha * x8[0]
		y8[1] += alpha * x8[1]
		y8[2] += alpha * x8[2]
		y8[3] += alpha * x8[3]
		y8[4] += alpha * x8[4]
		y8[5] += alpha * x8[5]
		y8[6] += alpha * x8[6]
		y8[7] += alpha * x8[7]
		x, y = x[8:], y[8:]
	}
	for len(x) > 0 && len(y) > 0 {
		y[0] += alpha * x[0]
		x, y = x[1:], y[1:]
	}
}

// axpy2 computes d0 += x0*b and d1 += x1*b in one pass over b, loading
// each b element once for both destination rows.
func axpy2(x0, x1 float64, b, d0, d1 []float64) {
	for len(b) >= 8 && len(d0) >= 8 && len(d1) >= 8 {
		b8, e0, e1 := b[:8], d0[:8], d1[:8]
		v0, v1, v2, v3 := b8[0], b8[1], b8[2], b8[3]
		v4, v5, v6, v7 := b8[4], b8[5], b8[6], b8[7]
		e0[0] += x0 * v0
		e0[1] += x0 * v1
		e0[2] += x0 * v2
		e0[3] += x0 * v3
		e0[4] += x0 * v4
		e0[5] += x0 * v5
		e0[6] += x0 * v6
		e0[7] += x0 * v7
		e1[0] += x1 * v0
		e1[1] += x1 * v1
		e1[2] += x1 * v2
		e1[3] += x1 * v3
		e1[4] += x1 * v4
		e1[5] += x1 * v5
		e1[6] += x1 * v6
		e1[7] += x1 * v7
		b, d0, d1 = b[8:], d0[8:], d1[8:]
	}
	for len(b) > 0 && len(d0) > 0 && len(d1) > 0 {
		v := b[0]
		d0[0] += x0 * v
		d1[0] += x1 * v
		b, d0, d1 = b[1:], d0[1:], d1[1:]
	}
}

// dotKernel returns the inner product of the common prefix of x and y,
// 8-way unrolled with four independent accumulator chains.
func dotKernel(x, y []float64) float64 {
	var s0, s1, s2, s3 float64
	for len(x) >= 8 && len(y) >= 8 {
		x8, y8 := x[:8], y[:8]
		s0 += x8[0]*y8[0] + x8[4]*y8[4]
		s1 += x8[1]*y8[1] + x8[5]*y8[5]
		s2 += x8[2]*y8[2] + x8[6]*y8[6]
		s3 += x8[3]*y8[3] + x8[7]*y8[7]
		x, y = x[8:], y[8:]
	}
	s := s0 + s1 + s2 + s3
	for len(x) > 0 && len(y) > 0 {
		s += x[0] * y[0]
		x, y = x[1:], y[1:]
	}
	return s
}

// dot2x2 returns the four inner products of rows {a0, a1} against rows
// {b0, b1}. Computing a 2-row × 2-row tile in one pass halves the loads
// per multiply-add and gives the core four independent accumulator
// chains to hide FMA latency behind. The loop stays un-unrolled on
// purpose: with four streams live, the 4 FMAs per iteration already
// saturate the load ports, and unrolling would reintroduce bounds
// checks (see file comment).
func dot2x2(a0, a1, b0, b1 []float64) (c00, c01, c10, c11 float64) {
	n := len(a0)
	a1 = a1[:n]
	b0 = b0[:n]
	b1 = b1[:n]
	for k := 0; k < n; k++ {
		x0 := a0[k]
		x1 := a1[k]
		y0 := b0[k]
		y1 := b1[k]
		c00 += x0 * y0
		c01 += x0 * y1
		c10 += x1 * y0
		c11 += x1 * y1
	}
	return
}

// dot1x2 returns the inner products of x against rows {b0, b1},
// loading each x element once for both products.
func dot1x2(x, b0, b1 []float64) (c0, c1 float64) {
	n := len(x)
	b0 = b0[:n]
	b1 = b1[:n]
	for k := 0; k < n; k++ {
		v := x[k]
		c0 += v * b0[k]
		c1 += v * b1[k]
	}
	return
}

// symvRow is the row step of the tridiagonalization's symmetric
// matrix-vector product: it adds f*w to e and returns w·d, reading one
// row segment of the working matrix for both halves of the symmetric
// product.
func symvRow(w, d, e []float64, f float64) (g float64) {
	n := len(w)
	d = d[:n]
	e = e[:n]
	for k := 0; k < n; k++ {
		x := w[k]
		g += x * d[k]
		e[k] += x * f
	}
	return g
}

// rank2Row applies one row of the tridiagonalization's symmetric
// rank-2 update: w -= f*e + g*d.
func rank2Row(w, e, d []float64, f, g float64) {
	n := len(w)
	e = e[:n]
	d = d[:n]
	for k := 0; k < n; k++ {
		w[k] -= f*e[k] + g*d[k]
	}
}

// givensRows applies the QL plane rotation to the eigenvector rows x
// and y: (x, y) ← (c·x − s·y, s·x + c·y).
func givensRows(x, y []float64, c, s float64) {
	n := len(x)
	y = y[:n]
	for k := 0; k < n; k++ {
		a, b := x[k], y[k]
		x[k] = c*a - s*b
		y[k] = s*a + c*b
	}
}
