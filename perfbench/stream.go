package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"arams/internal/abod"
	"arams/internal/audit"
	"arams/internal/ckpt"
	"arams/internal/engine"
	"arams/internal/imgproc"
	"arams/internal/knn"
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/optics"
	"arams/internal/parallel"
	"arams/internal/pca"
	"arams/internal/pipeline"
	"arams/internal/sketch"
	"arams/internal/umap"
)

// closedBatch is the closed loop's frames per IngestBatch call: one
// audit period, as lclsmon's streaming loop chunks its batches.
const closedBatch = 32

// streamKind is the monitor layout a stream runs with.
type streamKind struct {
	shards    int
	ckptEvery int // frames between in-band checkpoints; 0 = none
}

// streamConfig is lclsmon's streaming configuration with β = 1, so the
// certificate can be checked against the exact covariance error.
func streamConfig(seed uint64, shards int) pipeline.Config {
	cfg := batchConfig(seed)
	cfg.Sketch.Beta = 1
	cfg.Workers = 0
	cfg.Shards = shards
	cfg.AuditEvery = 32
	// lclsmon's setupAudit: Page-Hinkley on the residual with the
	// default -alarm-threshold λ = 0.5, on a private journal.
	const lambda = 0.5
	cfg.Audit = audit.New(audit.Config{
		Residual: audit.NewPageHinkley(lambda/10, lambda),
		Journal:  audit.NewJournal(audit.DefaultJournalCap),
	})
	return cfg
}

// call is one IngestBatch call: stream frames [lo, hi) in a phase.
type call struct {
	lo, hi, phase int
}

const (
	phaseWarmup = iota
	phaseTimed
	phaseTraced
)

// stream is a monitor fed from a pool of decoded frames: stream frame
// j is pool frame j mod len(pool), tagged j.
type stream struct {
	kind   streamKind
	cfg    pipeline.Config
	in     runInput
	pool   []*imgproc.Image
	window int
	m      *pipeline.Monitor
	decode time.Duration

	sent  int
	calls []call
	phase int

	// Per-phase records of the ingest calls and checkpoints.
	callDur  [3][]time.Duration
	ckptSt   [3][]time.Duration
	ckptEnc  [3][]time.Duration
	ckptSize [3][]float64
}

// newStream generates and encodes the pool, decodes it, and starts a
// monitor on it.
func newStream(o opts, kind streamKind) (*stream, error) {
	in, err := diffractionInput(o.seed, o.size.pool, o.size.frameSide)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	run, err := decode(in.bytes)
	if err != nil {
		return nil, err
	}
	in.bytes = nil // the monitor sees the decoded frames from here on
	s := &stream{in: in, pool: run.Frames, window: o.size.window, decode: time.Since(t)}
	return s, s.start(o.seed, kind)
}

// start builds a fresh monitor for the pool and fills its window with
// a closed-loop warm-up.
func (s *stream) start(seed uint64, kind streamKind) error {
	s.kind, s.sent, s.calls, s.phase = kind, 0, nil, phaseWarmup
	s.cfg = streamConfig(seed, kind.shards)
	s.m = pipeline.NewMonitor(s.cfg, s.window)
	for s.sent < s.window {
		if err := s.closedStep(nil, nextBatch(s.window-s.sent)); err != nil {
			return err
		}
	}
	return nil
}

// nextBatch is the size of the next closed-loop batch when n frames
// remain.
func nextBatch(n int) int { return min(n, closedBatch) }

// setupStream runs the set-up o.size.setupReps times and keeps the
// last; setup_s is the median.
func setupStream(o opts, kind streamKind) (*stream, []float64, error) {
	var s *stream
	var times []float64
	for r := 0; r < o.size.setupReps; r++ {
		s = nil
		runtime.GC() // the previous set-up's monitor and pool are garbage now
		t := time.Now()
		var err error
		if s, err = newStream(o, kind); err != nil {
			return nil, nil, err
		}
		times = append(times, secs(time.Since(t)))
	}
	return s, times, nil
}

func (s *stream) frames(lo, hi int) ([]*imgproc.Image, []int) {
	ims := make([]*imgproc.Image, hi-lo)
	tags := make([]int, hi-lo)
	for j := lo; j < hi; j++ {
		ims[j-lo] = s.pool[j%len(s.pool)]
		tags[j-lo] = j
	}
	return ims, tags
}

// ingest sends the next n frames in one IngestBatch call.
func (s *stream) ingest(tr *tracer, n int) {
	ims, tags := s.frames(s.sent, s.sent+n)
	sp := tr.root("engine.IngestBatch")
	s.m.IngestBatch(ims, tags)
	d := sp.end()
	s.calls = append(s.calls, call{s.sent, s.sent + n, s.phase})
	s.callDur[s.phase] = append(s.callDur[s.phase], d)
	s.sent += n
}

// closedStep is one closed-loop step: a batch, then an in-band
// checkpoint when the stream crosses a checkpoint boundary.
func (s *stream) closedStep(tr *tracer, n int) error {
	s.ingest(tr, n)
	if s.kind.ckptEvery > 0 && s.sent%s.kind.ckptEvery == 0 {
		return s.checkpoint(tr)
	}
	return nil
}

// checkpoint encodes the monitor state in memory, as lclsmon does
// before writing it out.
func (s *stream) checkpoint(tr *tracer) error {
	sp := tr.root("pipeline.Monitor.State")
	st := s.m.State()
	s.ckptSt[s.phase] = append(s.ckptSt[s.phase], sp.end())
	sp = tr.root("ckpt.Marshal")
	b, err := ckpt.Marshal(st)
	s.ckptEnc[s.phase] = append(s.ckptEnc[s.phase], sp.end())
	if err != nil {
		return fmt.Errorf("checkpoint at frame %d: %w", s.sent, err)
	}
	s.ckptSize[s.phase] = append(s.ckptSize[s.phase], float64(len(b)))
	return nil
}

// rateWindow is the frames per rate sample of the closed loop: one
// checkpoint period.
const rateWindow = 256

// closedLoop runs closed-loop steps for d and returns the ingest rate:
// the median over consecutive windows of rateWindow frames (checkpoint
// included), so a transient stall on a shared host moves one sample
// rather than the whole figure. With fewer than three windows it is
// frames over elapsed time.
func (s *stream) closedLoop(tr *tracer, d time.Duration) (float64, error) {
	start, sent := time.Now(), s.sent
	last := start
	var rates []float64
	for time.Since(start) < d {
		if err := s.closedStep(tr, closedBatch); err != nil {
			return 0, err
		}
		if s.sent%rateWindow == 0 {
			now := time.Now()
			rates = append(rates, rateWindow/now.Sub(last).Seconds())
			last = now
		}
	}
	if len(rates) < 3 {
		return float64(s.sent-sent) / time.Since(start).Seconds(), nil
	}
	return median(rates), nil
}

// poolRows preprocesses the pool as the engine does.
func (s *stream) poolRows() *mat.Matrix {
	d := s.pool[0].W * s.pool[0].H
	x := mat.New(len(s.pool), d)
	mat.ParallelFor(len(s.pool), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := x.Row(i)
			s.cfg.Pre.ApplyVec(s.pool[i], row[:d:d])
		}
	})
	return x
}

// verifySketch checks the engine's accounting and the FD certificate
// against the exact covariance error of everything ingested. Every
// stream frame is a pool frame, so AᵀA over the stream equals the Gram
// matrix of the pool rows each scaled by √(times ingested).
func (s *stream) verifySketch(c *checks, x *mat.Matrix, rep *report) {
	c.op(s.m.Ingested() == s.sent, "Ingested() = %d, frames sent %d", s.m.Ingested(), s.sent)
	cert := s.m.Engine().Certificate()
	c.op(cert.Rows == s.m.Ingested(), "Certificate().Rows = %d, Ingested() = %d", cert.Rows, s.m.Ingested())

	// B and the bound from the same clone, after Sketch() compacts it.
	g := s.m.Engine().GlobalSketch()
	b := g.Sketch()
	bound := audit.FromSketch(g)
	counts := make([]int, len(s.pool))
	for j := 0; j < s.sent; j++ {
		counts[j%len(s.pool)]++
	}
	a := weightedRows(x, counts)
	covErr := sketch.CovErr(a, b)
	checkCertificate(c, bound.Rows, s.sent, bound.CovBound(), covErr)
	rep.details["cert.cov_err"] = covErr
	rep.details["cert.cov_bound"] = bound.CovBound()
	rep.details["cert.rows"] = float64(bound.Rows)
}

// weightedRows stacks the rows of x that occur, each scaled by the
// square root of its count, so its Gram matrix is Σ count·xᵢxᵢᵀ.
func weightedRows(x *mat.Matrix, counts []int) *mat.Matrix {
	k := 0
	for _, n := range counts {
		if n > 0 {
			k++
		}
	}
	a := mat.New(k, x.ColsN)
	r := 0
	for i, n := range counts {
		if n == 0 {
			continue
		}
		w := math.Sqrt(float64(n))
		for j, v := range x.Row(i) {
			a.Row(r)[j] = w * v
		}
		r++
	}
	return a
}

// checkCertificate is the product's promise: the certificate covers
// every frame sent and bounds the exact covariance error.
func checkCertificate(c *checks, rows, sent int, bound, covErr float64) {
	c.op(rows == sent && covErr <= bound,
		"certificate: rows %d (sent %d), CovBound %.6g vs exact CovErr %.6g", rows, sent, bound, covErr)
}

// views alternates n full Snapshots over the final window (the analysis
// lclsmon's streaming mode ends with) with n QuickSnapshots (the
// operator's live view), so a burst of host contention lands on both
// kinds rather than on one. It returns the full snapshots' seconds and
// embedding correlations and the quick views' milliseconds.
func (s *stream) views(c *checks, n int, tr *tracer) (full, rhos, quick []float64) {
	for i := 0; i < n; i++ {
		sp := tr.root("pipeline.Snapshot")
		snap := s.m.Snapshot()
		full = append(full, secs(sp.end()))
		if c.op(s.viewCovers(snap), "full snapshot %d missing or not covering the window", i) {
			rho := embedRho(snap.Embedding, func(r int) int { return snap.Tags[r] % len(s.pool) }, s.in.factorDist)
			c.op(rho >= minRho, "full snapshot %d: embed_rho %.4f < %.1f", i, rho, minRho)
			rhos = append(rhos, rho)
		}
		sp = tr.root("pipeline.QuickSnapshot")
		snap = s.m.QuickSnapshot()
		quick = append(quick, ms(sp.end()))
		c.op(s.viewCovers(snap), "quick snapshot %d missing or not covering the window", i)
	}
	return full, rhos, quick
}

// viewCovers reports whether a view is present and covers the window.
func (s *stream) viewCovers(snap *pipeline.Snapshot) bool {
	return snap != nil && len(snap.Tags) == s.window && len(snap.Labels) == s.window &&
		snap.Embedding != nil && snap.Embedding.RowsN == s.window
}

func durMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// frameLatencies expands per-call durations (ms) to one sample per
// frame of each call.
func frameLatencies(s *stream, phase int) []float64 {
	var out []float64
	k := 0
	for _, cl := range s.calls {
		if cl.phase != phase {
			continue
		}
		for j := cl.lo; j < cl.hi; j++ {
			out = append(out, ms(s.callDur[phase][k]))
		}
		k++
	}
	return out
}

func runStream(o opts) (*report, error) {
	rep := newReport()
	s, setups, err := setupStream(o, streamKind{shards: 2, ckptEvery: 256})
	if err != nil {
		return nil, err
	}
	// A traced run splits its time between an untraced and a traced
	// phase on the same monitor; their rates give the tracing overhead.
	phase := o.seconds
	if o.trace {
		phase /= 2
	}
	s.phase = phaseTimed
	recBefore := s.m.Engine().Reconciles()
	fps, err := s.closedLoop(nil, phase)
	if err != nil {
		return nil, err
	}
	rep.details["timed.frames"] = float64(len(frameLatencies(s, phaseTimed)))
	rep.details["timed.reconciles"] = float64(s.m.Engine().Reconciles() - recBefore)
	rep.details["ckpt.count"] = float64(len(s.ckptEnc[phaseTimed]))
	if o.trace {
		rep.tracer = newTracer()
		s.phase = phaseTraced
		recBefore = s.m.Engine().Reconciles()
		tfps, err := s.closedLoop(rep.tracer, phase)
		if err != nil {
			return nil, err
		}
		zeroLayerMetrics(rep)
		rep.set("engine.reconciles", float64(s.m.Engine().Reconciles()-recBefore))
		rep.set("trace.overhead_frac", fps/tfps-1)
	}

	// The end-of-stream analysis and the output checks.
	full, rhos, quick := s.views(&rep.checks, o.size.views, rep.tracer)
	s.verifySketch(&rep.checks, s.poolRows(), rep)
	if o.trace {
		return rep, streamLayers(o, s, median(quick), rep)
	}
	lat := frameLatencies(s, phaseTimed)
	rep.details["frame.samples"] = float64(len(lat))
	rep.details["frame.p99_ms"] = percentile(lat, 0.99)
	rep.details["view.samples"] = float64(len(quick))
	rep.details["batch.samples"] = float64(len(full))
	rep.set("setup_s", setupTime(setups))
	rep.set("batch_s", median(full))
	rep.set("embed_rho", median(rhos))
	rep.set("ingest_fps", fps)
	rep.set("frame_p50_ms", percentile(lat, 0.5))
	rep.set("view_p50_ms", median(quick))
	rep.set("peak_mem_mb", peakMemMB())
	return rep, nil
}

// streamLayers fills the per-layer metrics of a stream workload from
// the traced phase and from replays of single layers on the same
// frames.
func streamLayers(o opts, s *stream, viewMS float64, rep *report) error {
	tr := rep.tracer
	calls := durMS(s.callDur[phaseTraced])
	rep.set("lcls.decode_s", secs(s.decode))
	rep.set("engine.ingest_batch_ms_p50", percentile(calls, 0.5))
	rep.set("engine.ingest_batch_ms_p99", percentile(calls, 0.99))
	rep.set("engine.ingest_batch_n", float64(len(calls)))
	if n := len(s.ckptEnc[phaseTraced]); n > 0 {
		rep.set("ckpt.marshal_ms", median(durMS(s.ckptEnc[phaseTraced])))
		rep.set("ckpt.state_ms", median(durMS(s.ckptSt[phaseTraced])))
		rep.set("ckpt.bytes", median(s.ckptSize[phaseTraced]))
		rep.set("ckpt.n", float64(n))
	}
	self := tr.selfTimes(func(root string) bool { return root != "replay" })
	for _, l := range layers {
		rep.set("self."+l+"_s", secs(self[l]))
	}

	replay := tr.root("replay")
	defer replay.end()
	x := s.poolRows()
	pre := preprocessReplay(replay, s)
	rep.set("imgproc.preprocess_us", median(pre.frameUS))
	rep.set("imgproc.preprocess_n", float64(len(pre.frameUS)))

	ab, err := absorbReplay(replay, s, x)
	if err != nil {
		return err
	}
	rep.set("sketch.absorb_s_sum", sum(ab.busy))
	rep.set("sketch.absorb_s_max", maxOf(ab.busy))
	rep.set("sketch.rotations", float64(ab.rotations))
	rep.set("sketch.kept_frac", float64(ab.kept)/float64(ab.offered))
	rep.set("sketch.kept_base", float64(ab.offered))
	rep.set("engine.unaccounted_s", secs(sumDur(s.callDur[phaseTraced]))-pre.wall-maxOf(ab.busy))
	rep.set("parallel.merge_ms", ab.mergeMS)
	rep.checks.op(ab.matches, "replayed shards do not reproduce the engine's certificate")
	rotations(replay, x, o.size.rotateRows, s.cfg.Sketch.Ell0, rep)

	certMS, err := certificateReplay(replay, s)
	if err != nil {
		return err
	}
	rep.set("engine.certificate_ms", certMS)

	fps1, err := closedReplay(replay, o, s, 1)
	if err != nil {
		return err
	}
	fps2, err := closedReplay(replay, o, s, 2)
	if err != nil {
		return err
	}
	rep.set("engine.fps_shards1", fps1)
	rep.set("engine.fps_shards2", fps2)
	rep.set("engine.shard_speedup", fps2/fps1)

	stages := viewReplay(replay, s)
	rep.set("pca.project_ms", ms(stages.project))
	rep.set("umap.fit_s", secs(stages.fit))
	rep.set("knn.umap_graph_s", secs(stages.graph))
	rep.set("umap.transform_ms", ms(stages.transform))
	rep.set("optics.run_s", secs(stages.optics))
	rep.set("optics.extract_ms", ms(stages.extract))
	rep.set("knn.vptree_s", secs(stages.vptree))
	rep.set("abod.scores_ms", ms(stages.abod))
	quick := stages.project + stages.transform + stages.optics + stages.extract + stages.abod
	rep.set("pipeline.unaccounted_s", viewMS/1e3-secs(quick))
	return nil
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

type preReplay struct {
	frameUS []float64
	wall    float64 // seconds, summed over the traced calls
}

// preprocessReplay preprocesses each traced-phase call's frames the way
// the engine does (pool buffers, fanned out on the worker pool), timing
// every frame and every call.
func preprocessReplay(parent span, s *stream) preReplay {
	sp := parent.child("imgproc.ApplyVec")
	defer sp.end()
	var out preReplay
	for _, cl := range s.calls {
		if cl.phase != phaseTraced {
			continue
		}
		ims, _ := s.frames(cl.lo, cl.hi)
		times := make([]time.Duration, len(ims))
		vecs := make([][]float64, len(ims))
		t := time.Now()
		mat.ParallelFor(len(ims), 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				ft := time.Now()
				vecs[i] = s.cfg.Pre.ApplyVec(ims[i], mat.GetVec(ims[i].W*ims[i].H))
				times[i] = time.Since(ft)
			}
		})
		out.wall += secs(time.Since(t))
		for i, v := range vecs {
			mat.PutVec(v)
			out.frameUS = append(out.frameUS, us(times[i]))
		}
	}
	return out
}

type absorbResult struct {
	busy          []float64 // per-shard seconds in the traced phase
	rotations     int
	kept, offered int
	mergeMS       float64
	matches       bool
}

// absorbReplay feeds the whole stream, call by call, through one local
// backend per shard with the engine's round-robin routing and per-shard
// sketch configuration, timing the traced phase's absorbs. The merged
// replay must reproduce the engine's certificate.
func absorbReplay(parent span, s *stream, x *mat.Matrix) (absorbResult, error) {
	sp := parent.child("sketch.Absorb")
	ns := s.kind.shards
	backends := make([]engine.Backend, ns)
	for i := range backends {
		backends[i] = engine.NewLocalBackend(engine.ShardSketchConfig(s.cfg.Sketch, i))
	}
	res := absorbResult{busy: make([]float64, ns)}
	// Rotations before the traced phase, so only its own are counted.
	var rotBefore []int
	for _, cl := range s.calls {
		if cl.phase == phaseTraced && rotBefore == nil {
			rotBefore = shardRotations(backends)
		}
		vecs := make([][]float64, cl.hi-cl.lo)
		perShard := make([][]int, ns)
		for j := cl.lo; j < cl.hi; j++ {
			vecs[j-cl.lo] = x.Row(j % x.RowsN)
			si := j % ns
			perShard[si] = append(perShard[si], j-cl.lo)
		}
		for si, idx := range perShard {
			if len(idx) == 0 {
				continue
			}
			t := time.Now()
			bs, err := backends[si].Absorb(vecs, idx)
			if err != nil {
				return res, fmt.Errorf("replay absorb: %w", err)
			}
			if cl.phase == phaseTraced {
				res.busy[si] += secs(time.Since(t))
				res.kept += bs.Kept
				res.offered += bs.Rows
			}
		}
	}
	if rotBefore == nil {
		rotBefore = shardRotations(backends)
	}
	for i, r := range shardRotations(backends) {
		res.rotations += r - rotBefore[i]
	}
	sp.end()
	legs := make([]parallel.RemoteLeg, ns)
	for i, b := range backends {
		legs[i] = parallel.RemoteLeg{Name: fmt.Sprint("shard", i), Fetch: b.Snapshot}
	}

	// The reconcile's merge path, repeated for a median.
	var merges []float64
	var merged *sketch.FrequentDirections
	for r := 0; r < 5; r++ {
		m := parent.child("parallel.MergeRemote")
		merged, _, _ = parallel.MergeRemote(legs, s.cfg.Merge, parallel.Retry{}, obs.SpanContext{})
		merges = append(merges, ms(m.end()))
	}
	res.mergeMS = median(merges)
	if ns == 1 {
		merged, _ = backends[0].Snapshot()
	}
	want := s.m.Engine().Certificate()
	got := audit.FromSketch(merged)
	res.matches = got.Rows == want.Rows && got.ShrinkMass == want.ShrinkMass && got.FrobMass == want.FrobMass
	return res, nil
}

// shardRotations reads each backend's rotation count (0 before its
// first row).
func shardRotations(backends []engine.Backend) []int {
	out := make([]int, len(backends))
	for i, b := range backends {
		if fd, err := b.Snapshot(); err == nil && fd != nil {
			out[i] = fd.Rotations()
		}
	}
	return out
}

// certificateReplay times Certificate() on monitors restored from the
// current state, whose global sketch is not cached yet: for several
// shards that is one reconcile.
func certificateReplay(parent span, s *stream) (float64, error) {
	var times []float64
	cfg := s.cfg
	cfg.Audit = nil
	for r := 0; r < 3; r++ {
		m, err := pipeline.NewMonitorFromState(cfg, s.m.State())
		if err != nil {
			return 0, fmt.Errorf("restoring monitor: %w", err)
		}
		sp := parent.child("engine.Certificate")
		m.Engine().Certificate()
		times = append(times, ms(sp.end()))
	}
	return median(times), nil
}

// closedReplay runs the workload's stream and configuration closed-loop
// on a fresh monitor over the same pool with the given shard count:
// warm-up, then o.size.speedupRows timed frames. It returns frames per
// second.
func closedReplay(parent span, o opts, s *stream, shards int) (float64, error) {
	sp := parent.child(fmt.Sprintf("engine.replay_shards%d", shards))
	defer sp.end()
	kind := s.kind
	kind.shards = shards
	r := &stream{in: s.in, pool: s.pool, window: s.window}
	if err := r.start(o.seed, kind); err != nil {
		return 0, err
	}
	start := time.Now()
	for r.sent < r.window+o.size.speedupRows {
		if err := r.closedStep(nil, nextBatch(r.window+o.size.speedupRows-r.sent)); err != nil {
			return 0, err
		}
	}
	return float64(o.size.speedupRows) / time.Since(start).Seconds(), nil
}

type viewTimes struct {
	project, fit, graph, transform, optics, extract, vptree, abod time.Duration
}

// viewReplay runs the operator view's stages on the final window
// through public calls: projection, UMAP fit and transform, OPTICS and
// ABOD, plus the kNN work nested in UMAP and OPTICS on its own.
func viewReplay(parent span, s *stream) viewTimes {
	var v viewTimes
	cfg := s.cfg
	x, _, basis, _ := s.m.Engine().WindowState(cfg.LatentDim)
	sp := parent.child("pca.Project")
	latent := pca.NewProjector(basis).Project(x)
	v.project = sp.end()
	sp = parent.child("umap.FitModel")
	model := umap.FitModel(latent, cfg.UMAP)
	v.fit = sp.end()
	sp = parent.child("knn.BruteForce")
	knn.BruteForce(latent, cfg.UMAP.NNeighbors)
	v.graph = sp.end()
	sp = parent.child("umap.Transform")
	emb := model.Transform(latent)
	v.transform = sp.end()
	sp = parent.child("optics.Run")
	opt := optics.Run(emb, cfg.MinPts, math.Inf(1))
	v.optics = sp.end()
	sp = parent.child("optics.ExtractXi")
	opt.ExtractXi(cfg.Xi, cfg.MinPts, cfg.MinClusterSize)
	v.extract = sp.end()
	sp = parent.child("knn.VPTree")
	vpQueries(emb)
	v.vptree = sp.end()
	sp = parent.child("abod.Scores")
	abod.Outliers(abod.Scores(emb, cfg.ABODNeighbors), cfg.Contamination)
	v.abod = sp.end()
	return v
}
