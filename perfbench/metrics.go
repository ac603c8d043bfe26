package main

// metricDef names a reported metric. BENCHMARK.json lists the same
// names and units; the self-test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are printed by every workload with --trace 0. Each is
// defined over the frames the workload feeds the system, so it has a
// reading on both workloads.
var endToEndMetrics = []metricDef{
	// Median of several set-ups: generation and run-file encoding; for
	// stream-2shard also decode, monitor construction and the warm-up
	// that fills the window.
	{"setup_s", "s", "lower"},
	// batch-beam: run-file bytes to a complete pipeline.Result.
	// stream-2shard: the full Snapshot over the window after the stream.
	{"batch_s", "s", "lower"},
	// Spearman ρ between embedding distance and generative-factor
	// distance over a fixed pair sample (the Fig. 5 measure), on the
	// result batch_s timed.
	{"embed_rho", "rho", "higher"},
	// stream-2shard: frames per second, the median over checkpoint
	// periods of the timed region. batch-beam: frames over batch_s.
	{"ingest_fps", "fps", "higher"},
	// Median time from a frame being handed to the system to the return
	// of the call that carried it: the IngestBatch call on
	// stream-2shard, the whole pass on batch-beam.
	{"frame_p50_ms", "ms", "lower"},
	// The operator view from an already-maintained sketch: QuickSnapshot
	// on stream-2shard, ProcessMatrixWithBasis' stages on batch-beam.
	{"view_p50_ms", "ms", "lower"},
	// Peak resident memory of the process.
	{"peak_mem_mb", "MB", "lower"},
}

// perLayerMetrics are printed by every workload with --trace 1. A layer
// the workload's path never calls reads 0 (the engine and ckpt on
// batch-beam, umap.transform_ms there too).
var perLayerMetrics = []metricDef{
	{"lcls.decode_s", "s", "lower"},
	{"imgproc.preprocess_us", "us", "lower"},
	{"imgproc.preprocess_n", "count", "higher"},
	{"sketch.absorb_s_sum", "s", "lower"},
	{"sketch.absorb_s_max", "s", "lower"},
	{"sketch.rotations", "count", "lower"},
	{"sketch.rotate_ms_p50", "ms", "lower"},
	{"sketch.rotate_ms_max", "ms", "lower"},
	{"sketch.rotate_n", "count", "higher"},
	{"sketch.kept_frac", "fraction", "higher"},
	{"sketch.kept_base", "count", "higher"},
	{"engine.ingest_batch_ms_p50", "ms", "lower"},
	{"engine.ingest_batch_ms_p99", "ms", "lower"},
	{"engine.ingest_batch_n", "count", "higher"},
	{"engine.reconciles", "count", "lower"},
	{"engine.certificate_ms", "ms", "lower"},
	{"engine.unaccounted_s", "s", "lower"},
	{"engine.shard_speedup", "ratio", "higher"},
	{"engine.fps_shards1", "fps", "higher"},
	{"engine.fps_shards2", "fps", "higher"},
	{"parallel.merge_ms", "ms", "lower"},
	{"ckpt.marshal_ms", "ms", "lower"},
	{"ckpt.state_ms", "ms", "lower"},
	{"ckpt.bytes", "bytes", "lower"},
	{"ckpt.n", "count", "higher"},
	{"pca.project_ms", "ms", "lower"},
	{"knn.umap_graph_s", "s", "lower"},
	{"knn.vptree_s", "s", "lower"},
	{"umap.fit_s", "s", "lower"},
	{"umap.transform_ms", "ms", "lower"},
	{"optics.run_s", "s", "lower"},
	{"optics.extract_ms", "ms", "lower"},
	{"abod.scores_ms", "ms", "lower"},
	{"pipeline.unaccounted_s", "s", "lower"},
	{"trace.overhead_frac", "fraction", "lower"},
	{"self.lcls_s", "s", "lower"},
	{"self.imgproc_s", "s", "lower"},
	{"self.engine_s", "s", "lower"},
	{"self.sketch_s", "s", "lower"},
	{"self.parallel_s", "s", "lower"},
	{"self.audit_s", "s", "lower"},
	{"self.ckpt_s", "s", "lower"},
	{"self.pca_s", "s", "lower"},
	{"self.knn_s", "s", "lower"},
	{"self.umap_s", "s", "lower"},
	{"self.optics_s", "s", "lower"},
	{"self.abod_s", "s", "lower"},
	{"self.pipeline_s", "s", "lower"},
}

// zeroLayerMetrics fills every per-layer metric with 0 in its unit, so
// a workload only sets the layers its path calls.
func zeroLayerMetrics(r *report) {
	for _, m := range perLayerMetrics {
		r.set(m.name, 0)
	}
}

func unitOf(name string) string {
	for _, ms := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, m := range ms {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}
