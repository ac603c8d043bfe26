package main

// Self-test of the benchmark at a small size: every workload prints
// every metric with its unit, the metric lists match BENCHMARK.json,
// and corrupted outputs register as failed operations.
//
//	cd perfbench && go test .

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"arams/internal/mat"
	"arams/internal/pipeline"
)

var smallSize = sizes{
	frameSide:   32,
	batchFrames: 150,
	minReps:     2,
	pool:        160,
	window:      96,
	setupReps:   1,
	views:       1,
	speedupRows: 64,
	rotateRows:  64,
}

func smallOpts(trace bool) opts {
	return opts{seed: DefaultSeed, seconds: 300 * time.Millisecond, trace: trace, size: smallSize}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for i, w := range spec.Workloads {
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json has %q", i, w.Name)
		}
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], m)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
}

// TestEveryMetricPrints runs each workload untraced and traced at the
// small size and checks the result line: every metric present with its
// unit, and no failed operation.
func TestEveryMetricPrints(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, prov, err := execute(w, smallOpts(trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var back struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				} `json:"metrics"`
			}
			if err := json.Unmarshal(line, &back); err != nil {
				t.Fatal(err)
			}
			want := endToEndMetrics
			if trace {
				want = perLayerMetrics
			}
			if len(back.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(back.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := back.Metrics[m.name]
				if !ok || got.Value == nil || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want a value in %s", w.name, trace, m.name, got, m.unit)
				}
			}
			if !back.Correct || back.Failed != 0 || back.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d (%v)", w.name, trace,
					back.Correct, back.Attempted, back.Failed, prov["provenance"].(map[string]any)["check_failures"])
			}
		}
	}
}

func TestFlippedLabelFails(t *testing.T) {
	in, err := beamInput(DefaultSeed, smallSize.batchFrames, smallSize.frameSide)
	if err != nil {
		t.Fatal(err)
	}
	cfg := batchConfig(DefaultSeed)
	ref, err := batchStages(nil, cfg, in.bytes)
	if err != nil {
		t.Fatal(err)
	}
	first := batchPass{labels: ref.labels, embedding: ref.embedding}
	var c checks
	checkBatch(&c, first, []batchPass{first}, len(ref.labels), 1)
	if c.failed != 0 {
		t.Fatalf("identical pass failed: %v", c.notes)
	}
	flipped := batchPass{labels: slices.Clone(ref.labels), embedding: ref.embedding}
	flipped.labels[0]++
	checkBatch(&c, flipped, []batchPass{first}, len(ref.labels), 1)
	if c.failed != 1 {
		t.Fatalf("flipped label: %d failures, want 1", c.failed)
	}
}

func TestShrunkBoundFails(t *testing.T) {
	o := smallOpts(false)
	s, err := newStream(o, streamKind{shards: 2, ckptEvery: 32})
	if err != nil {
		t.Fatal(err)
	}
	var c checks
	rep := newReport()
	s.verifySketch(&c, s.poolRows(), rep)
	if c.failed != 0 {
		t.Fatalf("real certificate failed: %v", c.notes)
	}
	covErr, bound := rep.details["cert.cov_err"], rep.details["cert.cov_bound"]
	if !(covErr > 0 && covErr <= bound) {
		t.Fatalf("CovErr %v, bound %v", covErr, bound)
	}
	checkCertificate(&c, s.sent, s.sent, covErr*(1-1e-9), covErr)
	checkCertificate(&c, s.sent-1, s.sent, bound, covErr)
	if c.failed != 2 {
		t.Fatalf("shrunk bound and short coverage: %d failures, want 2", c.failed)
	}
}

func TestPartialViewFails(t *testing.T) {
	s := &stream{window: 4}
	var c checks
	c.op(s.viewCovers(nil), "nil view")
	c.op(s.viewCovers(&pipeline.Snapshot{Tags: make([]int, 3), Labels: make([]int, 3), Embedding: mat.New(3, 2)}), "short view")
	c.op(s.viewCovers(&pipeline.Snapshot{Tags: make([]int, 4), Labels: make([]int, 4), Embedding: mat.New(4, 2)}), "full view")
	if c.attempted != 3 || c.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 3 and 2", c.attempted, c.failed)
	}
}
