package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// checks counts output checks against the operations they cover.
type checks struct {
	attempted int
	failed    int
	notes     []string
}

// op records one checked operation; a false ok counts it as failed.
func (c *checks) op(ok bool, format string, args ...any) bool {
	c.attempted++
	if !ok {
		c.failed++
		msg := fmt.Sprintf(format, args...)
		if len(c.notes) < 20 {
			c.notes = append(c.notes, msg)
		}
		fmt.Fprintln(os.Stderr, "check failed:", msg)
	}
	return ok
}

// percentile returns the q-quantile (0..1) of xs by linear
// interpolation between order statistics; xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// setupTime is the median set-up time with the first set-up left out:
// it runs while the host's CPUs and the Go runtime are still warming up.
func setupTime(times []float64) float64 {
	if len(times) > 1 {
		times = times[1:]
	}
	return median(times)
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func secs(d time.Duration) float64 { return d.Seconds() }
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64   { return float64(d) / float64(time.Microsecond) }

// spearman is the rank correlation of a and b, with tied values given
// their mean rank.
func spearman(a, b []float64) float64 {
	ra, rb := ranks(a), ranks(b)
	n := float64(len(a))
	var ma, mb float64
	for i := range ra {
		ma += ra[i]
		mb += rb[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range ra {
		da, db := ra[i]-ma, rb[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

func ranks(v []float64) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool { return v[idx[x]] < v[idx[y]] })
	out := make([]float64, len(v))
	for lo := 0; lo < len(idx); {
		hi := lo
		for hi+1 < len(idx) && v[idx[hi+1]] == v[idx[lo]] {
			hi++
		}
		r := float64(lo+hi) / 2
		for k := lo; k <= hi; k++ {
			out[idx[k]] = r
		}
		lo = hi + 1
	}
	return out
}

// pairSample returns the index pairs the embedding-correlation measure
// uses: a fixed, seed-independent lattice over n points (every 3rd
// point against every 17th after it, as in the pipeline's Fig. 5 test).
func pairSample(n int) [][2]int {
	var pairs [][2]int
	for i := 0; i < n; i += 3 {
		for j := i + 1; j < n; j += 17 {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	return pairs
}

// peakMemMB is the process's peak resident set (VmHWM) in MiB, or the
// Go runtime's total reservation where /proc is unavailable.
func peakMemMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// provenance records what produced a result: host, toolchain, source
// and inputs.
func provenance(name string, o opts) map[string]any {
	commit, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
	}
	commit += dirty
	return map[string]any{
		"workload":      name,
		"seed":          o.seed,
		"seconds":       o.seconds.Seconds(),
		"trace":         o.trace,
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceDigest("."),
		"default_seed":  DefaultSeed,
		"held_out_seed": HeldOutSeed,
	}
}

// sourceDigest hashes the Go sources and module files under root, so a
// result can be tied to the code that produced it even where the
// checkout carries no version-control metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && strings.HasPrefix(n, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
