package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
	"time"

	"arams/internal/audit"
	"arams/internal/pipeline"
	"arams/internal/rng"
	"arams/internal/sketch"
)

// goldenFloats returns n deterministic floats, including the specials
// whose bit patterns the encoder must carry unchanged.
func goldenFloats(n int, seed uint64) []float64 {
	g := rng.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = g.Norm()
	}
	if n >= 4 {
		out[0], out[1], out[2], out[3] = math.Copysign(0, -1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64
	}
	return out
}

// goldenStates builds one state of every kind from literals, so the
// frames below depend on the codec alone, not on sketch numerics.
func goldenStates() map[string]any {
	fd := sketch.FDState{
		Ell: 3, D: 8, NextZero: 3, Rotations: 4, Seen: 17,
		TotalDelta: 2.5, FrobMass: 40.25, Buffer: goldenFloats(24, 1),
	}
	ra := sketch.RankAdaptiveState{
		FD: fd, Nu: 2, Eps: 0.125, Estimator: sketch.EstimatorKind(1),
		RNG:    rng.State{Hi: 1, Lo: 2, IncHi: 3, IncLo: 5, HaveGauss: true, Gauss: -0.5},
		Recent: [][]float64{goldenFloats(8, 2), goldenFloats(8, 3)}, IncreaseEll: true, RowsLeft: -1, Grows: 1,
	}
	pr := sketch.PriorityState{
		M: 2, Seen: 9, RNG: rng.State{Hi: 7},
		Entries: []sketch.PriorityEntry{
			{Priority: 0.75, Weight: 1.5, Index: 4, Row: goldenFloats(5, 4)},
			{Priority: 0.25, Weight: 2, Index: 6, Row: nil},
		},
	}
	cfg := sketch.Config{Ell0: 3, Nu: 2, Eps: 0.2, Beta: 0.8, RankAdaptive: true, Seed: 11}
	ar := sketch.ARAMSState{Cfg: cfg, D: 8, RNG: rng.State{Lo: 9}, RankAdaptive: &ra}
	fdOnly := sketch.ARAMSState{Cfg: sketch.Config{Ell0: 3, Beta: 1}, D: 8, FD: &fd}
	det := audit.DetectorState{Kind: "page_hinkley", Thresh: 5, Slack: 0.01, Warmup: 30, N: 41, Mean: 0.3, Pos: 1, PosExt: -1, Neg: 2, NegExt: 3}
	mon := &pipeline.MonitorState{
		Window: 4, Ingests: 6,
		Frames: []pipeline.FrameState{{Tag: 2, Vec: goldenFloats(8, 5)}, {Tag: 3, Vec: goldenFloats(8, 6)}},
		Shards: []*sketch.ARAMSState{&ar, nil, &fdOnly},
		Audit:  &audit.State{Batches: 12, Alarms: 1, Residual: det, Accept: det},
		Journal: &audit.JournalState{Seq: 3, Events: []audit.Event{
			{Seq: 2, Time: time.Unix(1700000000, 5).UTC(), Kind: audit.EventKind("alarm"), Msg: "drift", Attrs: []audit.Attr{{Key: "v", Val: 0.5}}},
		}},
	}
	return map[string]any{"fd": fd, "rank-adaptive": &ra, "priority": pr, "arams": ar, "monitor": mon}
}

// TestMarshalGolden pins the checkpoint encoding byte for byte: any
// change to the encoder that moves a single byte of any frame kind
// changes one of these digests. They were recorded with the original
// append-per-value encoder, before it learned to presize and encode in
// place.
func TestMarshalGolden(t *testing.T) {
	want := map[string]string{
		"fd":            "35b6506239476ff662b39d79ba05905dc792b8c7b36755cc62a8785602707f13",
		"rank-adaptive": "65d25ddcabc06563cab1b07d1f0fa5cadbcc597145f59ea23ef62038496324f8",
		"priority":      "9eac958594a78b6bddd4ad46929d0897c067c82cc8718708d7eb6c696746e0c0",
		"arams":         "caf9ba07195f3ac6d0549212008ced56c889fbbee1816462bad1613a0baa3d35",
		"monitor":       "756b42e26562c3d2f99396466d6adbd0d3723d479adfc7afe72157733678bb2b",
	}
	for name, st := range goldenStates() {
		b, err := Marshal(st)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: frame sha256 = %s, want %s", name, got, want[name])
		}
	}
}
