// Command perfbench is the repository benchmark: it runs one seeded
// workload through the monitor's public entry points, checks the
// outputs, and prints every metric by name with its unit.
//
//	bash perfbench/run.sh --workload batch-beam --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end metrics of BENCHMARK.json; with --trace 1 the run
// also records spans around the calls into each layer, replays single
// layers on the same inputs, and prints the per-layer metrics instead.
// The line before it carries provenance and sample counts; the traced
// run writes its spans to .bench_build/traces/.
//
// Inputs are generated in-process from --seed with the lcls simulators
// and encoded to run-file bytes, so the program under test only sees
// generated run files. Default seed 1; seed 7 is the held-out seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// DefaultSeed is the seed the documentation's numbers use; HeldOutSeed
// is the one kept aside to confirm a claimed change on unseen inputs.
const (
	DefaultSeed = 1
	HeldOutSeed = 7
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back: the metrics of the requested
// kind, the output checks, and details (sample counts, bases) that go
// on the provenance line rather than into the scored metrics.
type report struct {
	metrics map[string]metric
	details map[string]float64
	checks  checks
	tracer  *tracer
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, details: map[string]float64{}}
}

// set stores a metric in the unit its definition gives.
func (r *report) set(name string, v float64) {
	u := unitOf(name)
	if u == "" {
		panic("perfbench: undefined metric " + name)
	}
	r.metrics[name] = metric{Value: v, Unit: u}
}

// opts is one invocation: seed, measuring time, traced or not, and the
// workload sizes (the self-test shrinks them).
type opts struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	size    sizes
}

// sizes are the input dimensions of the workloads. All frames are
// 64×64 (d = 4096) at full size.
type sizes struct {
	frameSide   int // detector frame side, pixels
	batchFrames int // frames in the batch-beam run
	minReps     int // batch passes measured at least, whatever --seconds says
	pool        int // distinct frames the stream cycles through
	window      int // monitor window (the warm-up fills it before timing)
	setupReps   int // set-ups per run; see setupTime
	views       int // full and quick snapshots after the stream
	speedupRows int // frames timed in the shards 2 vs 1 replay
	rotateRows  int // rows in the row-by-row FD rotation replay
}

var fullSize = sizes{
	frameSide:   64,
	batchFrames: 1500,
	minReps:     3,
	pool:        2048,
	window:      1024,
	setupReps:   4,
	views:       7,
	speedupRows: 2048,
	rotateRows:  2048,
}

type workload struct {
	name string
	run  func(o opts) (*report, error)
}

// workloads are listed, with why each was chosen, in BENCHMARK.json.
var workloads = []workload{
	{"batch-beam", runBatch},
	{"stream-2shard", runStream},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "batch-beam", "workload to run")
	seed := flag.Uint64("seed", DefaultSeed, "input seed")
	seconds := flag.Int("seconds", 10, "measuring time per run, seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	o := opts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, size: fullSize}
	res, prov, err := execute(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(prov)
	if err == nil {
		fmt.Println(string(line))
		line, err = json.Marshal(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs one workload and assembles the result line and the
// provenance line. It fails when a metric is missing or not finite,
// so a result is never printed with a hole in it.
func execute(w workload, o opts) (result, map[string]any, error) {
	rep, err := w.run(o)
	if err != nil {
		return result{}, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	want := endToEndMetrics
	if o.trace {
		want = perLayerMetrics
	}
	out := make(map[string]metric, len(want))
	for _, m := range want {
		v, ok := rep.metrics[m.name]
		if !ok {
			return result{}, nil, fmt.Errorf("%s: metric %s was not measured", w.name, m.name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return result{}, nil, fmt.Errorf("%s: metric %s is %v", w.name, m.name, v.Value)
		}
		if v.Unit != m.unit {
			return result{}, nil, fmt.Errorf("%s: metric %s has unit %q, want %q", w.name, m.name, v.Unit, m.unit)
		}
		out[m.name] = v
	}
	prov := provenance(w.name, o)
	if rep.tracer != nil {
		path, err := rep.tracer.write(w.name, o.seed, prov)
		if err != nil {
			return result{}, nil, err
		}
		prov["trace_file"] = path
	}
	keys := make([]string, 0, len(rep.details))
	for k := range rep.details {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	details := make(map[string]float64, len(keys))
	for _, k := range keys {
		details[k] = rep.details[k]
	}
	prov["details"] = details
	prov["check_failures"] = rep.checks.notes
	return result{
		Correct:   rep.checks.failed == 0 && rep.checks.attempted > 0,
		Attempted: rep.checks.attempted,
		Failed:    rep.checks.failed,
		Metrics:   out,
	}, map[string]any{"provenance": prov}, nil
}
