// Package optics implements the OPTICS density-based clustering
// algorithm (Ankerst, Breunig, Kriegel & Sander 1999) used as the final
// stage of the paper's pipeline, together with two cluster-extraction
// methods (DBSCAN-equivalent eps cut and ξ steep-area extraction) and a
// plain DBSCAN used for cross-validation in tests.
package optics

import (
	"math"

	"arams/internal/knn"
	"arams/internal/mat"
)

// Noise is the label assigned to unclustered points.
const Noise = -1

// Result holds the OPTICS ordering and the per-point reachability and
// core distances (indexed by original point index, not ordering
// position). Unreachable/undefined distances are +Inf.
type Result struct {
	Order        []int
	Reachability []float64
	CoreDist     []float64
}

// Run computes the OPTICS ordering of the rows of x with the given
// minPts and generating radius maxEps (use math.Inf(1) for unbounded,
// as the paper's visual analysis does).
//
// This is exact dense OPTICS: each processed point computes its
// distance row once, takes its core distance from the minPts−1
// smallest in-range distances, and relaxes reachability in a flat
// array. The next point is the unprocessed one with the smallest
// finite (reachability, index) — exactly the seed list of the
// classical formulation, since every expansion drains its seeds before
// the outer loop moves on. O(n²·dim) time, O(n) memory, no allocation
// per point.
func Run(x *mat.Matrix, minPts int, maxEps float64) *Result {
	n := x.RowsN
	if minPts < 2 {
		minPts = 2
	}
	res := &Result{
		Order:        make([]int, 0, n),
		Reachability: make([]float64, n),
		CoreDist:     make([]float64, n),
	}
	reach := res.Reachability
	for i := range reach {
		reach[i] = math.Inf(1)
		res.CoreDist[i] = math.Inf(1)
	}
	if n == 0 {
		return res
	}

	processed := make([]bool, n)
	dist := make([]float64, n)
	// nearest holds the k = minPts−1 smallest in-range distances of the
	// current point in ascending order (minPts counts the point itself).
	k := minPts - 1
	nearest := make([]float64, 0, k)
	for start := 0; start < n; start++ {
		if processed[start] {
			continue
		}
		for p := start; p >= 0; p = nextSeed(reach, processed) {
			processed[p] = true
			res.Order = append(res.Order, p)

			xp := x.Row(p)
			nearest = nearest[:0]
			for j := 0; j < n; j++ {
				d := math.Sqrt(knn.DistSq(xp, x.Row(j)))
				dist[j] = d
				if j == p || d > maxEps {
					continue
				}
				nearest = insertBounded(nearest, k, d)
			}
			if len(nearest) < k {
				continue
			}
			cd := nearest[k-1]
			res.CoreDist[p] = cd
			for j, d := range dist {
				if processed[j] || d > maxEps {
					continue
				}
				if r := math.Max(cd, d); r < reach[j] {
					reach[j] = r
				}
			}
		}
	}
	return res
}

// insertBounded inserts d into the ascending slice s, keeping at most
// k smallest values.
func insertBounded(s []float64, k int, d float64) []float64 {
	if len(s) == k {
		if d >= s[k-1] {
			return s
		}
		s = s[:k-1]
	}
	i := len(s)
	s = append(s, d)
	for ; i > 0 && s[i-1] > d; i-- {
		s[i] = s[i-1]
	}
	s[i] = d
	return s
}

// nextSeed returns the unprocessed point with the smallest finite
// reachability, ties broken by lower index, or −1 when the current
// expansion has no seeds left.
func nextSeed(reach []float64, processed []bool) int {
	best, bestR := -1, math.Inf(1)
	for j, r := range reach {
		if r < bestR && !processed[j] {
			best, bestR = j, r
		}
	}
	return best
}

// ExtractDBSCAN cuts the reachability plot at eps, producing labels
// equivalent to DBSCAN(eps, minPts) up to border-point assignment.
// Points with reachability > eps start a new cluster if their own core
// distance is ≤ eps, otherwise they are Noise.
func (r *Result) ExtractDBSCAN(eps float64) []int {
	labels := make([]int, len(r.Reachability))
	for i := range labels {
		labels[i] = Noise
	}
	cluster := -1
	for _, p := range r.Order {
		if r.Reachability[p] > eps {
			if r.CoreDist[p] <= eps {
				cluster++
				labels[p] = cluster
			}
			continue
		}
		if cluster >= 0 {
			labels[p] = cluster
		}
	}
	return labels
}

// ReachabilityInOrder returns the reachability plot: reachability
// distances arranged in the cluster ordering — the curve whose valleys
// are clusters. Plotting tools consume this directly.
func (r *Result) ReachabilityInOrder() []float64 {
	out := make([]float64, len(r.Order))
	for pos, p := range r.Order {
		out[pos] = r.Reachability[p]
	}
	return out
}

// NumClusters returns the number of distinct non-noise labels.
func NumClusters(labels []int) int {
	seen := map[int]bool{}
	for _, l := range labels {
		if l != Noise {
			seen[l] = true
		}
	}
	return len(seen)
}
