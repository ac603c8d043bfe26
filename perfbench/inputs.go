package main

import (
	"bytes"
	"fmt"
	"math"

	"arams/internal/lcls"
	"arams/internal/mat"
)

// runInput is one generated run as the program sees it (run-file
// bytes) plus the generative factors the benchmark keeps to itself for
// the embedding-correlation measure.
type runInput struct {
	bytes []byte
	// factorDist is the distance between frames i and j in generative
	// factor space.
	factorDist func(i, j int) float64
}

// beamInput generates an n-frame beam-profile run with lclssim's
// defaults (exotic fraction 0.02); label 1 marks exotic shots.
func beamInput(seed uint64, n, side int) (runInput, error) {
	bg := lcls.NewBeamGenerator(lcls.BeamConfig{Size: side, ExoticFrac: 0.02, Seed: seed})
	run := &lcls.Run{Experiment: "xppc00121", RunNumber: 510, Detector: lcls.BeamDetector}
	params := make([]lcls.BeamParams, n)
	for i := 0; i < n; i++ {
		f := bg.Next()
		label := 0
		if f.Params.Exotic {
			label = 1
		}
		run.Append(f.Image, label)
		params[i] = f.Params
	}
	b, err := encode(run)
	// The Fig. 5 factors: beam offset plus circularity, weighted as in
	// the pipeline's embedding test.
	dist := func(i, j int) float64 {
		pi, pj := params[i], params[j]
		return math.Hypot(pi.CenterX-pj.CenterX, pi.CenterY-pj.CenterY) +
			10*math.Abs(pi.Circularity()-pj.Circularity())
	}
	return runInput{bytes: b, factorDist: dist}, err
}

// diffractionInput generates an n-frame diffraction-ring run; labels
// are the quadrant-weight classes.
func diffractionInput(seed uint64, n, side int) (runInput, error) {
	dg := lcls.NewDiffractionGenerator(lcls.DiffractionConfig{Size: side, Seed: seed})
	frames, labels := dg.Generate(n)
	run := &lcls.Run{Experiment: "xppc00121", RunNumber: 511, Detector: lcls.AreaDetector}
	params := make([]lcls.DiffractionParams, n)
	for i, f := range frames {
		run.Append(f.Image, labels[i])
		params[i] = f.Params
	}
	b, err := encode(run)
	// Quadrant weights set the class; the ring radius jitters within it.
	dist := func(i, j int) float64 {
		pi, pj := params[i], params[j]
		d := 0.1 * math.Abs(pi.Radius-pj.Radius)
		for q := range pi.Quadrants {
			d += math.Abs(pi.Quadrants[q] - pj.Quadrants[q])
		}
		return d
	}
	return runInput{bytes: b, factorDist: dist}, err
}

func encode(run *lcls.Run) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := run.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("encoding run: %w", err)
	}
	return buf.Bytes(), nil
}

func decode(b []byte) (*lcls.Run, error) {
	run, err := lcls.ReadRun(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("decoding run: %w", err)
	}
	return run, nil
}

// embedRho is the Spearman correlation between embedding distance and
// factor distance over the fixed pair sample; rowOf maps an embedding
// row to its frame index in the generated run.
func embedRho(emb *mat.Matrix, rowOf func(int) int, factorDist func(i, j int) float64) float64 {
	var factor, embed []float64
	for _, p := range pairSample(emb.RowsN) {
		i, j := p[0], p[1]
		factor = append(factor, factorDist(rowOf(i), rowOf(j)))
		embed = append(embed, math.Hypot(emb.At(i, 0)-emb.At(j, 0), emb.At(i, 1)-emb.At(j, 1)))
	}
	return spearman(factor, embed)
}
