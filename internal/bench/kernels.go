package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"

	"arams/internal/mat"
	"arams/internal/rng"
)

// Kernel microbenchmarks: every entry times a reference kernel (kept
// in internal/mat/reference.go) against its production replacement on
// the same input, so BENCH_kernels.json records the speedup on the
// shapes the FD hot path actually runs — 2ℓ×d rotation buffers with
// d ≫ 2ℓ, and the 2ℓ×2ℓ eigensolve between them.

// KernelResult is one reference-vs-production comparison. The fdrotate
// rows also carry the per-phase split (gram, eig, project) of both
// sides, each phase timed on its own.
type KernelResult struct {
	Kernel      string           `json:"kernel"`
	Shape       string           `json:"shape"`
	RefNsOp     int64            `json:"ref_ns_op"`
	NewNsOp     int64            `json:"new_ns_op"`
	Speedup     float64          `json:"speedup"`
	NewAllocsOp int64            `json:"new_allocs_op"`
	NewBytesOp  int64            `json:"new_bytes_op"`
	RefSplitNs  map[string]int64 `json:"ref_split_ns,omitempty"`
	NewSplitNs  map[string]int64 `json:"new_split_ns,omitempty"`
}

// KernelReport is the full sweep, serialized to BENCH_kernels.json.
// NumCPU and GoMaxProcs record the host parallelism at measurement
// time: the blocked kernels fan out over the mat worker pool, so their
// speedups are only reproducible on hosts with at least as many cores.
type KernelReport struct {
	PoolWorkers int            `json:"pool_workers"`
	NumCPU      int            `json:"num_cpu"`
	GoMaxProcs  int            `json:"gomaxprocs"`
	Results     []KernelResult `json:"results"`
}

// WriteJSON serializes the report with stable indentation.
func (r *KernelReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// bench runs fn under the testing harness and returns its result.
func benchKernel(fn func()) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
}

func kernelEntry(kernel, shape string, ref, blocked func()) KernelResult {
	rr := benchKernel(ref)
	nr := benchKernel(blocked)
	speedup := 0.0
	if nr.NsPerOp() > 0 {
		speedup = float64(rr.NsPerOp()) / float64(nr.NsPerOp())
	}
	return KernelResult{
		Kernel:      kernel,
		Shape:       shape,
		RefNsOp:     rr.NsPerOp(),
		NewNsOp:     nr.NsPerOp(),
		Speedup:     speedup,
		NewAllocsOp: nr.AllocsPerOp(),
		NewBytesOp:  nr.AllocedBytesPerOp(),
	}
}

// KernelSweep times the reference and production kernels on
// FD-relevant shapes. quick restricts the sweep to three small entries
// for the CI smoke job; the full sweep backs the checked-in
// BENCH_kernels.json.
func KernelSweep(seed uint64, quick bool) (*KernelReport, *Table) {
	g := rng.New(seed)
	report := &KernelReport{
		PoolWorkers: mat.Workers(),
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}

	gramShapes := [][2]int{{64, 4096}, {128, 4096}, {64, 16384}}
	if quick {
		gramShapes = [][2]int{{64, 2048}}
	}
	for _, sh := range gramShapes {
		m, d := sh[0], sh[1]
		a := mat.RandGaussian(m, d, g)
		out := mat.New(m, m)
		report.Results = append(report.Results, kernelEntry(
			"gram", fmt.Sprintf("%dx%d", m, d),
			func() { _ = mat.RefGram(a) },
			func() { mat.GramTo(out, a) },
		))
	}

	svdShapes := [][2]int{{64, 4096}}
	if quick {
		svdShapes = [][2]int{{64, 2048}}
	}
	for _, sh := range svdShapes {
		m, d := sh[0], sh[1]
		a := mat.RandGaussian(m, d, g)
		sigma := make([]float64, m)
		vt := mat.New(m, d)
		report.Results = append(report.Results, kernelEntry(
			"svdgram", fmt.Sprintf("%dx%d", m, d),
			func() { _, _, _ = mat.RefSVDGram(a) },
			func() { sigma = mat.SVDGramTo(a, sigma, vt) },
		))
	}

	eigSizes := []int{50, 100}
	if quick {
		eigSizes = []int{50}
	}
	for _, n := range eigSizes {
		sym := mat.Gram(mat.RandGaussian(n, 4096, g))
		report.Results = append(report.Results, kernelEntry(
			"eigsym", fmt.Sprintf("%dx%d", n, n),
			func() { _, _ = mat.RefEigSym(sym) },
			func() { _, _ = mat.EigSym(sym) },
		))
	}

	if !quick {
		// One FD shrink at the perfbench shape (2ℓ = 50, d = 4096) and
		// at ℓ = 16, d = 1024.
		for _, sh := range [][2]int{{25, 4096}, {16, 1024}} {
			report.Results = append(report.Results, fdRotateEntry(sh[0], sh[1], g))
		}

		// The PCA projection shape (window×d · basisᵀ) and the Vᵀ
		// rebuild inside the rotation (m×m · m×d).
		x := mat.RandGaussian(1024, 4096, g)
		basis := mat.RandGaussian(20, 4096, g)
		dst := mat.New(1024, 20)
		report.Results = append(report.Results, kernelEntry(
			"mulabt", "1024x4096x20",
			func() { _ = mat.RefMulABt(x, basis) },
			func() { mat.MulABtTo(dst, x, basis) },
		))

		coef := mat.RandGaussian(64, 64, g)
		wide := mat.RandGaussian(64, 4096, g)
		prod := mat.New(64, 4096)
		ref := mat.New(64, 4096)
		report.Results = append(report.Results, kernelEntry(
			"mul", "64x64x4096",
			func() { mat.RefMulTo(ref, coef, wide) },
			func() { mat.MulTo(prod, coef, wide) },
		))
	}

	t := &Table{
		Title: "Kernel microbenchmarks: reference vs production",
		Note: "speedup = ref/new wall time per op; the svdgram and fdrotate rows " +
			"are the FD rotation hot path: 0 allocs/op on one core, only the pool " +
			"fan-out's on more",
		Header: []string{"kernel", "shape", "ref ns/op", "new ns/op", "speedup", "allocs/op", "B/op"},
	}
	for _, r := range report.Results {
		t.Append(r.Kernel, r.Shape, r.RefNsOp, r.NewNsOp, r.Speedup, r.NewAllocsOp, r.NewBytesOp)
	}
	return report, t
}

// fdRotateEntry times the decomposition of one FD shrink on a 2ℓ×d
// buffer. The reference is the rotation as it ran before the QL
// eigensolver: pooled Gram, cyclic-Jacobi eigensolve, and a projection
// of all 2ℓ rows of Vᵀ. The production path is SVDGramTo asking for
// the ℓ rows the shrink keeps. Each phase is also timed on its own.
func fdRotateEntry(ell, d int, g *rng.RNG) KernelResult {
	m := 2 * ell
	a := mat.RandGaussian(m, d, g)
	gram := mat.New(m, m)
	mat.GramTo(gram, a)
	// The projection's cost depends only on the coefficient shape.
	coefFull := mat.RandGaussian(m, m, g)
	coefTop := coefFull.Rows(0, ell)
	vtFull := mat.New(m, d)
	vtTop := mat.New(ell, d)
	sigma := make([]float64, m)

	refGram := func() { mat.GramTo(gram, a) }
	refEig := func() { _, _ = mat.RefEigSym(gram) }
	refProject := func() { mat.MulTo(vtFull, coefFull, a) }
	newEig := func() { _, _ = mat.EigSym(gram) }
	newProject := func() { mat.MulTo(vtTop, coefTop, a) }

	e := kernelEntry("fdrotate", fmt.Sprintf("%dx%d", m, d),
		func() { refGram(); refEig(); refProject() },
		func() { sigma = mat.SVDGramTo(a, sigma, vtTop) },
	)
	phase := func(fn func()) int64 { return benchKernel(fn).NsPerOp() }
	gramNs := phase(refGram)
	e.RefSplitNs = map[string]int64{"gram": gramNs, "eig": phase(refEig), "project": phase(refProject)}
	e.NewSplitNs = map[string]int64{"gram": gramNs, "eig": phase(newEig), "project": phase(newProject)}
	return e
}
