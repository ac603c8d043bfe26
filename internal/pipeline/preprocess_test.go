package pipeline

import (
	"fmt"
	"math"
	"testing"

	"arams/internal/imgproc"
	"arams/internal/mat"
)

// toMatrix flattens equal-size images into an n×(W·H) matrix, copying
// pixels: with per-frame Apply copies it is the two-pass reference
// preprocessRows must match.
func toMatrix(imgs []*imgproc.Image) *mat.Matrix {
	if len(imgs) == 0 {
		return mat.New(0, 0)
	}
	d := imgs[0].W * imgs[0].H
	out := mat.New(len(imgs), d)
	for i, im := range imgs {
		if im.W*im.H != d {
			panic("toMatrix: images differ in size")
		}
		copy(out.Row(i), im.Pix)
	}
	return out
}

func TestToMatrix(t *testing.T) {
	frames := imagesOf(beamFrames(2, 4))
	m := toMatrix(frames)
	if r, c := m.Dims(); r != 2 || c != 32*32 {
		t.Fatalf("matrix shape %d×%d", r, c)
	}
	if m.At(0, 5) != frames[0].Pix[5] || m.At(1, 7) != frames[1].Pix[7] {
		t.Fatal("matrix contents wrong")
	}
	if e := toMatrix(nil); e.RowsN != 0 {
		t.Fatal("empty batch should give empty matrix")
	}
}

func preprocessConfigs() map[string]imgproc.Preprocessor {
	mask := imgproc.NewMask(32, 32)
	for i := 0; i < len(mask.Bad); i += 37 {
		mask.Bad[i] = true
	}
	return map[string]imgproc.Preprocessor{
		"normalize":       {Normalize: true},
		"masked-pedestal": {Mask: mask, Pedestal: 0.01, ThresholdFrac: 0.05, Normalize: true},
		"center":          {Center: true, Normalize: true},
		"bin":             {BinFactor: 2},
		"center-bin":      {Mask: mask, Center: true, BinFactor: 4, Normalize: true},
	}
}

// TestPreprocessRowsMatchesApply pins the in-place batch preprocessing
// to the per-frame Apply copies it replaced: the matrix Process builds
// is bit-identical to flattening Apply's output, for shape-keeping and
// reshaping chains alike, and the input frames are left untouched.
func TestPreprocessRowsMatchesApply(t *testing.T) {
	frames := imagesOf(beamFrames(50, 11))
	orig := toMatrix(frames)
	for name, pre := range preprocessConfigs() {
		applied := make([]*imgproc.Image, len(frames))
		for i, f := range frames {
			applied[i] = pre.Apply(f)
		}
		want := toMatrix(applied)
		got := preprocessRows(frames, pre)
		if err := sameBits(got, want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sameBits(toMatrix(frames), orig); err != nil {
			t.Fatalf("%s mutated the input frames: %v", name, err)
		}
	}
	if e := preprocessRows(nil, imgproc.Preprocessor{Normalize: true}); e.RowsN != 0 {
		t.Fatal("empty batch should give empty matrix")
	}
}

// TestPreprocessRowsMixedSizesPanics keeps ToMatrix's contract: frames
// whose preprocessed sizes differ panic on the caller's goroutine,
// whether the odd frame is smaller or larger, first or last.
func TestPreprocessRowsMixedSizesPanics(t *testing.T) {
	base := imagesOf(beamFrames(20, 12))
	small := imgproc.NewImage(16, 16)
	large := imgproc.NewImage(40, 40)
	cases := map[string][]*imgproc.Image{
		"small-last":  append(append([]*imgproc.Image{}, base...), small),
		"large-last":  append(append([]*imgproc.Image{}, base...), large),
		"small-first": append([]*imgproc.Image{small}, base...),
	}
	for name, frames := range cases {
		for cname, pre := range preprocessConfigs() {
			if pre.Mask != nil {
				continue // a mask fixes the frame size itself
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s/%s: mixed frame sizes did not panic", name, cname)
					}
				}()
				preprocessRows(frames, pre)
			}()
		}
	}
}

func sameBits(got, want *mat.Matrix) error {
	if got.RowsN != want.RowsN || got.ColsN != want.ColsN {
		return fmt.Errorf("shape %d×%d, want %d×%d", got.RowsN, got.ColsN, want.RowsN, want.ColsN)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			return fmt.Errorf("element %d = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
	return nil
}
