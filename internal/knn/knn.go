// Package knn provides k-nearest-neighbor search for the UMAP, OPTICS,
// and ABOD stages. Two engines are available: an exact brute-force
// search parallelized across goroutines (robust at any dimension, used
// by default on the ≤100-dimensional PCA projections the pipeline
// produces), and a vantage-point tree for repeated low-dimensional
// queries.
package knn

import (
	"math"
	"runtime"
	"sort"
	"sync"

	"arams/internal/mat"
)

// Neighbor is one kNN result: the index of the neighbor point and its
// Euclidean distance.
type Neighbor struct {
	Index int
	Dist  float64
}

// Graph holds the k nearest neighbors of every point, sorted by
// ascending distance, excluding the point itself.
type Graph struct {
	K         int
	Neighbors [][]Neighbor // [n][k]
}

// maxHeap over neighbor distances, used to keep the k best candidates.
// The sift operations are typed (no interface boxing per push) and
// follow container/heap's algorithm step for step, NaN comparisons
// included, so the heap keeps exactly the candidates it always kept.
type maxHeap []Neighbor

// push adds nb and restores the heap order.
func (h *maxHeap) push(nb Neighbor) {
	*h = append(*h, nb)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if !(s[j].Dist > s[i].Dist) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// replaceTop overwrites the farthest candidate with nb.
func (h maxHeap) replaceTop(nb Neighbor) {
	h[0] = nb
	h.down(0, len(h))
}

// down sifts element i toward the leaves of h[:n].
func (h maxHeap) down(i, n int) {
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if r := j + 1; r < n && h[r].Dist > h[j].Dist {
			j = r
		}
		if !(h[j].Dist > h[i].Dist) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// sortAscending drains the heap in place (heapsort), leaving h ordered
// by ascending distance.
func (h maxHeap) sortAscending() {
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		h.down(0, n)
	}
}

// Distance returns the Euclidean distance between rows i and j of x.
func Distance(x *mat.Matrix, i, j int) float64 {
	return math.Sqrt(DistSq(x.Row(i), x.Row(j)))
}

// DistSq returns the squared Euclidean distance between two vectors.
func DistSq(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// BruteForce builds the exact kNN graph of the rows of x, splitting the
// outer loop across all CPUs. k is clamped to n−1.
func BruteForce(x *mat.Matrix, k int) *Graph {
	n := x.RowsN
	if k >= n {
		k = n - 1
	}
	if k < 1 {
		return &Graph{K: 0, Neighbors: make([][]Neighbor, n)}
	}
	g := &Graph{K: k, Neighbors: make([][]Neighbor, n)}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			h := make(maxHeap, 0, k+1)
			for i := lo; i < hi; i++ {
				h = h[:0]
				xi := x.Row(i)
				for j := 0; j < n; j++ {
					if j == i {
						continue
					}
					d := DistSq(xi, x.Row(j))
					if len(h) < k {
						h.push(Neighbor{Index: j, Dist: d})
					} else if d < h[0].Dist {
						h.replaceTop(Neighbor{Index: j, Dist: d})
					}
				}
				nb := make([]Neighbor, len(h))
				copy(nb, h)
				sort.Slice(nb, func(a, b int) bool { return nb[a].Dist < nb[b].Dist })
				for t := range nb {
					nb[t].Dist = math.Sqrt(nb[t].Dist)
				}
				g.Neighbors[i] = nb
			}
		}(lo, hi)
	}
	wg.Wait()
	return g
}

// VPTree is a vantage-point tree over the rows of a matrix, supporting
// exact k-nearest and radius queries with O(log n) expected node
// visits in low dimension.
type VPTree struct {
	x    *mat.Matrix
	root *vpNode
}

type vpNode struct {
	index  int
	radius float64
	inside *vpNode
	beyond *vpNode
}

// NewVPTree builds a vantage-point tree. The point order within x is
// used deterministically (first point of each subset is the vantage
// point), so construction needs no RNG.
func NewVPTree(x *mat.Matrix) *VPTree {
	idx := make([]int, x.RowsN)
	for i := range idx {
		idx[i] = i
	}
	t := &VPTree{x: x}
	t.root = t.build(idx)
	return t
}

func (t *VPTree) build(idx []int) *vpNode {
	if len(idx) == 0 {
		return nil
	}
	node := &vpNode{index: idx[0]}
	rest := idx[1:]
	if len(rest) == 0 {
		return node
	}
	vp := t.x.Row(node.index)
	d := make([]float64, len(rest))
	for i, j := range rest {
		d[i] = math.Sqrt(DistSq(vp, t.x.Row(j)))
	}
	// Partition around the median distance.
	order := make([]int, len(rest))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return d[order[a]] < d[order[b]] })
	mid := len(order) / 2
	node.radius = d[order[mid]]
	inside := make([]int, 0, mid)
	beyond := make([]int, 0, len(order)-mid)
	for pos, oi := range order {
		if pos < mid {
			inside = append(inside, rest[oi])
		} else {
			beyond = append(beyond, rest[oi])
		}
	}
	node.inside = t.build(inside)
	node.beyond = t.build(beyond)
	return node
}

// KNearest returns the k nearest stored points to query (excluding any
// point at distance exactly 0 if excludeSelf and the query is a stored
// row — callers pass excludeIndex = -1 to keep everything).
func (t *VPTree) KNearest(query []float64, k int, excludeIndex int) []Neighbor {
	if k <= 0 {
		return nil
	}
	h := make(maxHeap, 0, k)
	t.search(t.root, query, k, excludeIndex, &h)
	h.sortAscending()
	return h
}

func (t *VPTree) search(node *vpNode, query []float64, k, exclude int, h *maxHeap) {
	if node == nil {
		return
	}
	d := math.Sqrt(DistSq(query, t.x.Row(node.index)))
	if node.index != exclude {
		if len(*h) < k {
			h.push(Neighbor{Index: node.index, Dist: d})
		} else if d < (*h)[0].Dist {
			h.replaceTop(Neighbor{Index: node.index, Dist: d})
		}
	}
	tau := math.Inf(1)
	if len(*h) == k {
		tau = (*h)[0].Dist
	}
	if d < node.radius {
		t.search(node.inside, query, k, exclude, h)
		if len(*h) == k {
			tau = (*h)[0].Dist
		}
		if d+tau >= node.radius {
			t.search(node.beyond, query, k, exclude, h)
		}
	} else {
		t.search(node.beyond, query, k, exclude, h)
		if len(*h) == k {
			tau = (*h)[0].Dist
		}
		if d-tau <= node.radius {
			t.search(node.inside, query, k, exclude, h)
		}
	}
}

// Radius returns every stored point within dist of query, ascending by
// distance.
func (t *VPTree) Radius(query []float64, dist float64) []Neighbor {
	var out []Neighbor
	t.radiusSearch(t.root, query, dist, &out)
	sort.Slice(out, func(a, b int) bool { return out[a].Dist < out[b].Dist })
	return out
}

func (t *VPTree) radiusSearch(node *vpNode, query []float64, dist float64, out *[]Neighbor) {
	if node == nil {
		return
	}
	d := math.Sqrt(DistSq(query, t.x.Row(node.index)))
	if d <= dist {
		*out = append(*out, Neighbor{Index: node.index, Dist: d})
	}
	if d-dist <= node.radius {
		t.radiusSearch(node.inside, query, dist, out)
	}
	if d+dist >= node.radius {
		t.radiusSearch(node.beyond, query, dist, out)
	}
}

// GraphFromVPTree builds the kNN graph using a VP-tree — faster than
// brute force for large low-dimensional point sets.
func GraphFromVPTree(x *mat.Matrix, k int) *Graph {
	n := x.RowsN
	if k >= n {
		k = n - 1
	}
	g := &Graph{K: k, Neighbors: make([][]Neighbor, n)}
	if k < 1 {
		return g
	}
	t := NewVPTree(x)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				g.Neighbors[i] = t.KNearest(x.Row(i), k, i)
			}
		}(lo, hi)
	}
	wg.Wait()
	return g
}
