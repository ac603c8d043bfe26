package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"arams/internal/abod"
	"arams/internal/imgproc"
	"arams/internal/knn"
	"arams/internal/mat"
	"arams/internal/optics"
	"arams/internal/parallel"
	"arams/internal/pca"
	"arams/internal/pipeline"
	"arams/internal/sketch"
	"arams/internal/umap"
)

// minRho is the embedding-correlation floor of the pipeline's Fig. 5
// test.
const minRho = 0.3

// batchConfig is lclsmon's batch configuration. The stage parameters
// the pipeline would default are spelled out, because the traced pass
// replays the stages with them.
func batchConfig(seed uint64) pipeline.Config {
	return pipeline.Config{
		Pre:            imgproc.Preprocessor{Normalize: true},
		Sketch:         sketch.Config{Ell0: 25, Beta: 0.9, Seed: seed},
		Workers:        runtime.NumCPU(),
		Merge:          parallel.TreeMerge,
		LatentDim:      12,
		UMAP:           umap.Config{NNeighbors: 20, NEpochs: 200, Seed: seed + 1},
		MinPts:         5,
		Xi:             0.15,
		MinClusterSize: 20,
		ABODNeighbors:  10,
		Contamination:  0.02,
	}
}

// batchPass is one timed pass from run-file bytes to a result.
type batchPass struct {
	total, decode, stages, view time.Duration
	labels                      []int
	embedding                   *mat.Matrix
}

// viewStages are the stages ProcessMatrixWithBasis runs: the refresh
// of an operator view from an already-maintained sketch.
var viewStages = []string{"pca", "umap", "cluster", "abod", "residuals"}

func runBatch(o opts) (*report, error) {
	rep := newReport()
	cfg := batchConfig(o.seed)
	n := o.size.batchFrames

	var in runInput
	var setups []float64
	for r := 0; r < o.size.setupReps; r++ {
		t := time.Now()
		var err error
		if in, err = beamInput(o.seed, n, o.size.frameSide); err != nil {
			return nil, err
		}
		setups = append(setups, secs(time.Since(t)))
		runtime.GC() // the previous set-up's inputs are garbage now
	}

	// Untraced passes: each decodes the same bytes and runs
	// pipeline.Process; every pass must reproduce the first one.
	// A traced run splits its time between untraced and traced passes;
	// their medians give the tracing overhead.
	phase := o.seconds
	if o.trace {
		phase /= 2
	}
	var passes []batchPass
	var rhos []float64
	start := time.Now()
	for len(passes) < o.size.minReps || time.Since(start) < phase {
		t := time.Now()
		run, err := decode(in.bytes)
		if err != nil {
			return nil, err
		}
		decoded := time.Since(t)
		res := pipeline.Process(run.Frames, cfg)
		p := batchPass{total: time.Since(t), decode: decoded, labels: res.Labels, embedding: res.Embedding}
		for name, d := range res.StageTimes {
			p.stages += d
			if slices.Contains(viewStages, name) {
				p.view += d
			}
		}
		rho := embedRho(res.Embedding, identity, in.factorDist)
		rhos = append(rhos, rho)
		checkBatch(&rep.checks, p, passes, n, rho)
		if len(passes) > 0 {
			p.labels, p.embedding = nil, nil // compared; keep only the first
		}
		passes = append(passes, p)
	}

	totals := make([]float64, len(passes))
	views := make([]float64, len(passes))
	for i, p := range passes {
		totals[i] = secs(p.total)
		views[i] = ms(p.view)
	}
	rep.details["batch.passes"] = float64(len(passes))
	rep.details["frame.samples"] = float64(n * len(passes))
	rep.details["view.samples"] = float64(len(views))
	rep.details["frames"] = float64(n)

	if !o.trace {
		rep.set("setup_s", setupTime(setups))
		rep.set("batch_s", median(totals))
		rep.set("embed_rho", median(rhos))
		rep.set("ingest_fps", float64(n)/median(totals))
		// Every frame of a pass waits for the whole pass.
		rep.set("frame_p50_ms", 1e3*median(totals))
		rep.set("view_p50_ms", median(views))
		rep.set("peak_mem_mb", peakMemMB())
		return rep, nil
	}

	zeroLayerMetrics(rep)
	unaccounted := make([]float64, len(passes))
	for i, p := range passes {
		unaccounted[i] = secs(p.total - p.decode - p.stages)
	}
	rep.set("pipeline.unaccounted_s", median(unaccounted))
	if err := tracedBatch(o, phase, cfg, in, passes[0], median(totals), rep); err != nil {
		return nil, err
	}
	return rep, nil
}

func identity(i int) int { return i }

// checkBatch checks one pass against the first: same labels, same
// embedding bit for bit, and an embedding that still tracks the
// generative factors.
func checkBatch(c *checks, p batchPass, prev []batchPass, n int, rho float64) {
	ok := len(p.labels) == n && p.embedding.RowsN == n
	if ok && len(prev) > 0 {
		ok = slices.Equal(p.labels, prev[0].labels) && slices.Equal(p.embedding.Data, prev[0].embedding.Data)
	}
	c.op(ok, "batch pass %d: labels or embedding differ from the first pass", len(prev))
	c.op(rho >= minRho, "batch pass %d: embed_rho %.4f < %.1f", len(prev), rho, minRho)
}

// tracedStages are the per-stage timings of one traced batch pass.
type tracedStages struct {
	total, decode, merge, project, fit, optics, extract, abod time.Duration
	absorbSum, absorbMax                                      time.Duration
	frameTimes                                                []time.Duration
	rotations, kept, offered                                  int
	x, latent, embedding                                      *mat.Matrix
	labels                                                    []int
}

// tracedBatch replays pipeline.Process's stage sequence through public
// calls with a span around each, then replays the nested knn work and
// the FD rotations on their own. Each traced pass must reproduce the
// untraced labels and embedding, or it would measure another program.
func tracedBatch(o opts, phase time.Duration, cfg pipeline.Config, in runInput, ref batchPass, untraced float64, rep *report) error {
	tr := newTracer()
	rep.tracer = tr
	var passes []tracedStages
	start := time.Now()
	for len(passes) < o.size.minReps || time.Since(start) < phase {
		ts, err := batchStages(tr, cfg, in.bytes)
		if err != nil {
			return err
		}
		rep.checks.op(slices.Equal(ts.labels, ref.labels) && slices.Equal(ts.embedding.Data, ref.embedding.Data),
			"traced pass %d: labels or embedding differ from pipeline.Process", len(passes))
		if len(passes) > 0 {
			// Only the last pass's matrices feed the replays.
			prev := &passes[len(passes)-1]
			prev.x, prev.latent, prev.embedding, prev.labels = nil, nil, nil, nil
		}
		passes = append(passes, ts)
	}
	last := passes[len(passes)-1]
	med := func(f func(tracedStages) time.Duration) time.Duration {
		ds := make([]float64, len(passes))
		for i, p := range passes {
			ds[i] = float64(f(p))
		}
		return time.Duration(median(ds))
	}
	var frames []float64
	for _, p := range passes {
		for _, d := range p.frameTimes {
			frames = append(frames, us(d))
		}
	}
	rep.set("lcls.decode_s", secs(med(func(p tracedStages) time.Duration { return p.decode })))
	rep.set("imgproc.preprocess_us", median(frames))
	rep.set("imgproc.preprocess_n", float64(len(frames)))
	rep.set("sketch.absorb_s_sum", secs(med(func(p tracedStages) time.Duration { return p.absorbSum })))
	rep.set("sketch.absorb_s_max", secs(med(func(p tracedStages) time.Duration { return p.absorbMax })))
	rep.set("sketch.rotations", float64(last.rotations))
	rep.set("sketch.kept_frac", float64(last.kept)/float64(last.offered))
	rep.set("sketch.kept_base", float64(last.offered))
	rep.set("parallel.merge_ms", ms(med(func(p tracedStages) time.Duration { return p.merge })))
	rep.set("pca.project_ms", ms(med(func(p tracedStages) time.Duration { return p.project })))
	rep.set("umap.fit_s", secs(med(func(p tracedStages) time.Duration { return p.fit })))
	rep.set("optics.run_s", secs(med(func(p tracedStages) time.Duration { return p.optics })))
	rep.set("optics.extract_ms", ms(med(func(p tracedStages) time.Duration { return p.extract })))
	rep.set("abod.scores_ms", ms(med(func(p tracedStages) time.Duration { return p.abod })))
	traced := secs(med(func(p tracedStages) time.Duration { return p.total }))
	rep.set("trace.overhead_frac", traced/untraced-1)
	rep.details["traced.passes"] = float64(len(passes))

	self := tr.selfTimes(func(root string) bool { return root == "pipeline.Process" })
	for _, l := range layers {
		rep.set("self."+l+"_s", secs(self[l])/float64(len(passes)))
	}

	// Nested work, timed on its own: the kNN graph UMAP builds on the
	// latent, and the VP-tree queries OPTICS makes on the embedding.
	replay := tr.root("replay")
	sp := replay.child("knn.BruteForce")
	knn.BruteForce(last.latent, cfg.UMAP.NNeighbors)
	rep.set("knn.umap_graph_s", secs(sp.end()))
	sp = replay.child("knn.VPTree")
	vpQueries(last.embedding)
	rep.set("knn.vptree_s", secs(sp.end()))
	rotations(replay, last.x, o.size.rotateRows, cfg.Sketch.Ell0, rep)
	replay.end()
	return nil
}

// vpQueries repeats OPTICS's neighbour search with an unbounded radius:
// one VP-tree over the points, then every point's full neighbour list.
func vpQueries(x *mat.Matrix) {
	tree := knn.NewVPTree(x)
	for i := 0; i < x.RowsN; i++ {
		tree.KNearest(x.Row(i), x.RowsN-1, i)
	}
}

// rotations replays rows one at a time through a fresh FD sketch of
// rank ell and times the Append calls that rotated.
func rotations(parent span, x *mat.Matrix, rows, ell int, rep *report) {
	sp := parent.child("sketch.FrequentDirections.Append")
	fd := sketch.NewFrequentDirections(ell, x.ColsN, sketch.Options{})
	var rot []float64
	for i := 0; i < rows; i++ {
		before := fd.Rotations()
		t := time.Now()
		fd.Append(x.Row(i % x.RowsN))
		if d := time.Since(t); fd.Rotations() > before {
			rot = append(rot, ms(d))
		}
	}
	sp.end()
	if len(rot) == 0 {
		return
	}
	rep.set("sketch.rotate_ms_p50", median(rot))
	rep.set("sketch.rotate_ms_max", maxOf(rot))
	rep.set("sketch.rotate_n", float64(len(rot)))
}

// batchStages is pipeline.Process → ProcessMatrix →
// ProcessMatrixWithBasis, stage for stage, through public calls.
func batchStages(tr *tracer, cfg pipeline.Config, runBytes []byte) (tracedStages, error) {
	var ts tracedStages
	root := tr.root("pipeline.Process")
	sp := root.child("lcls.ReadRun")
	run, err := decode(runBytes)
	ts.decode = sp.end()
	if err != nil {
		return ts, err
	}
	n := len(run.Frames)
	if n == 0 {
		return ts, fmt.Errorf("empty run")
	}

	sp = root.child("imgproc.ApplyVec")
	d := run.Frames[0].W * run.Frames[0].H
	x := mat.New(n, d)
	ts.frameTimes = make([]time.Duration, n)
	mat.ParallelFor(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t := time.Now()
			row := x.Row(i)
			cfg.Pre.ApplyVec(run.Frames[i], row[:d:d])
			ts.frameTimes[i] = time.Since(t)
		}
	})
	sp.end()

	sp = root.child("parallel.Run")
	var mu sync.Mutex
	var absorb []time.Duration
	sketcher := func(shard *mat.Matrix) *sketch.FrequentDirections {
		s := sp.child("sketch.ARAMS.ProcessBatch")
		a := sketch.NewARAMS(cfg.Sketch, shard.ColsN, shard.RowsN)
		bs := a.ProcessBatch(shard)
		dur := s.end()
		mu.Lock()
		absorb = append(absorb, dur)
		ts.kept += bs.Kept
		ts.offered += bs.Rows
		mu.Unlock()
		return a.FD()
	}
	global, stats := parallel.Run(parallel.SplitRows(x, cfg.Workers), sketcher, cfg.Merge)
	sp.end()
	ts.merge = stats.MergeTime
	ts.rotations = stats.LocalRotations + stats.MergeRotations
	for _, a := range absorb {
		ts.absorbSum += a
		ts.absorbMax = max(ts.absorbMax, a)
	}

	sp = root.child("sketch.Basis")
	basis := global.Basis(min(cfg.LatentDim, global.Ell()))
	sp.end()
	if basis.RowsN == 0 {
		return ts, fmt.Errorf("degenerate sketch basis")
	}
	sp = root.child("pca.Project")
	latent := pca.NewProjector(basis).Project(x)
	ts.project = sp.end()
	sp = root.child("umap.Fit")
	emb := umap.Fit(latent, cfg.UMAP)
	ts.fit = sp.end()
	sp = root.child("optics.Run")
	opt := optics.Run(emb, cfg.MinPts, math.Inf(1))
	ts.optics = sp.end()
	sp = root.child("optics.ExtractXi")
	labels := opt.ExtractXi(cfg.Xi, cfg.MinPts, cfg.MinClusterSize)
	ts.extract = sp.end()
	sp = root.child("abod.Scores")
	scores := abod.Scores(emb, cfg.ABODNeighbors)
	abod.Outliers(scores, cfg.Contamination)
	ts.abod = sp.end()
	sp = root.child("pipeline.residuals")
	residuals(x, latent)
	sp.end()
	ts.total = root.end()
	ts.x, ts.latent, ts.embedding, ts.labels = x, latent, emb, labels
	return ts, nil
}

// residuals is the pipeline's residual stage: ‖x − VᵀVx‖²/‖x‖² from
// the latent coefficients.
func residuals(x, latent *mat.Matrix) []float64 {
	out := make([]float64, x.RowsN)
	for i := range out {
		den := mat.Norm2Sq(x.Row(i))
		if den == 0 {
			continue
		}
		out[i] = max(den-mat.Norm2Sq(latent.Row(i)), 0) / den
	}
	return out
}
