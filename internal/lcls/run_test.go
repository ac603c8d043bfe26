package lcls

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// hostileHeader encodes a run header claiming count frames of w×h
// pixels, followed by the first frame's label and nothing else.
func hostileHeader(w, h, count int64) []byte {
	var buf bytes.Buffer
	put := func(v interface{}) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	put(runMagic)
	put(uint32(1))
	put(uint32(0)) // empty experiment
	put(int64(7))
	put(uint32(0)) // empty detector
	put(w)
	put(h)
	put(count)
	put(int64(0)) // first label
	return buf.Bytes()
}

// TestReadRunTruncatedHugeFrameAllocatesLittle pins the decode bound: a
// ~50-byte file whose header claims a 16384×16384 frame must fail
// without allocating anything near the 2 GiB the claim implies.
func TestReadRunTruncatedHugeFrameAllocatesLittle(t *testing.T) {
	data := append(hostileHeader(16384, 16384, 1), make([]byte, 24)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadRun(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated run accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("decoding a %d-byte truncated run allocated %d bytes, want < 1 MiB", len(data), got)
	}
}

// TestReadRunRejectsOverflowingSize covers dimensions whose product
// wraps around int64.
func TestReadRunRejectsOverflowingSize(t *testing.T) {
	if _, err := ReadRun(bytes.NewReader(hostileHeader(1<<32, 1<<32, 1))); err == nil {
		t.Fatal("wrapping frame size accepted")
	}
}

// TestReadRunMultiChunkFrames round-trips frames larger than one
// decode chunk, so pixel slices grow across several reads.
func TestReadRunMultiChunkFrames(t *testing.T) {
	bg := NewBeamGenerator(BeamConfig{Size: 100, Seed: 3})
	run := &Run{Experiment: "x", Detector: BeamDetector}
	for i := 0; i < 3; i++ {
		run.Append(bg.Next().Image, i)
	}
	var buf bytes.Buffer
	if _, err := run.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRun(got, run); err != "" {
		t.Fatal(err)
	}
}

func sameRun(a, b *Run) string {
	if a.Experiment != b.Experiment || a.RunNumber != b.RunNumber || a.Detector != b.Detector ||
		a.Width != b.Width || a.Height != b.Height || a.Len() != b.Len() {
		return "header or frame count differs"
	}
	for i := range a.Frames {
		if a.Labels[i] != b.Labels[i] {
			return "label differs"
		}
		fa, fb := a.Frames[i], b.Frames[i]
		if fa.W != fb.W || fa.H != fb.H || len(fa.Pix) != len(fb.Pix) {
			return "frame shape differs"
		}
		for p := range fa.Pix {
			if math.Float64bits(fa.Pix[p]) != math.Float64bits(fb.Pix[p]) {
				return "pixel differs"
			}
		}
	}
	return ""
}

// FuzzReadRun feeds mutated run files to ReadRun: it must return an
// error, never panic, and whatever it accepts must re-encode to a
// prefix of the input and decode back to the same run.
func FuzzReadRun(f *testing.F) {
	bg := NewBeamGenerator(BeamConfig{Size: 4, Seed: 1})
	run := &Run{Experiment: "xppc00121", RunNumber: 510, Detector: BeamDetector}
	for i := 0; i < 3; i++ {
		run.Append(bg.Next().Image, i-1)
	}
	var buf bytes.Buffer
	if _, err := run.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(hostileHeader(16384, 16384, 1))
	f.Add(hostileHeader(0, 3, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadRun(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if _, err := got.WriteTo(&enc); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, enc.Bytes()) {
			t.Fatal("accepted run does not re-encode to a prefix of its input")
		}
		again, err := ReadRun(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded run rejected: %v", err)
		}
		if msg := sameRun(again, got); msg != "" {
			t.Fatal(msg)
		}
	})
}
