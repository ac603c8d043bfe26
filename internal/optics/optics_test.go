package optics

import (
	"container/heap"
	"fmt"
	"math"
	"testing"

	"arams/internal/knn"
	"arams/internal/mat"
	"arams/internal/rng"
)

// blobs builds k Gaussian clusters of nPer points in 2-D, centers on a
// circle of the given radius, returning points and ground-truth labels.
func blobs(k, nPer int, radius, sigma float64, seed uint64) (*mat.Matrix, []int) {
	g := rng.New(seed)
	x := mat.New(k*nPer, 2)
	labels := make([]int, k*nPer)
	for c := 0; c < k; c++ {
		angle := 2 * math.Pi * float64(c) / float64(k)
		cx, cy := radius*math.Cos(angle), radius*math.Sin(angle)
		for i := 0; i < nPer; i++ {
			idx := c*nPer + i
			x.Set(idx, 0, cx+sigma*g.Norm())
			x.Set(idx, 1, cy+sigma*g.Norm())
			labels[idx] = c
		}
	}
	return x, labels
}

func TestOrderingIsPermutation(t *testing.T) {
	x, _ := blobs(3, 30, 10, 0.5, 1)
	res := Run(x, 5, math.Inf(1))
	if len(res.Order) != x.RowsN {
		t.Fatalf("ordering length %d", len(res.Order))
	}
	seen := make([]bool, x.RowsN)
	for _, p := range res.Order {
		if seen[p] {
			t.Fatalf("point %d appears twice in ordering", p)
		}
		seen[p] = true
	}
}

func TestCoreDistances(t *testing.T) {
	x, _ := blobs(1, 50, 0, 0.5, 2)
	res := Run(x, 5, math.Inf(1))
	for i, cd := range res.CoreDist {
		if math.IsInf(cd, 1) {
			t.Fatalf("point %d has undefined core distance in a dense blob", i)
		}
		if cd < 0 {
			t.Fatalf("negative core distance at %d", i)
		}
	}
}

func TestReachabilityValleys(t *testing.T) {
	// Three tight, well-separated blobs: the reachability plot must
	// contain exactly 3 low "valleys" separated by high jumps.
	x, _ := blobs(3, 40, 20, 0.3, 3)
	res := Run(x, 5, math.Inf(1))
	jumps := 0
	for pos := 1; pos < len(res.Order); pos++ {
		r := res.Reachability[res.Order[pos]]
		if r > 5 { // far larger than intra-blob distances
			jumps++
		}
	}
	// First point of each new blob after the initial one causes a jump.
	if jumps != 2 {
		t.Fatalf("expected 2 inter-blob jumps, got %d", jumps)
	}
}

func TestExtractDBSCANRecoversBlobs(t *testing.T) {
	x, truth := blobs(4, 40, 20, 0.3, 4)
	res := Run(x, 5, math.Inf(1))
	labels := res.ExtractDBSCAN(2.0)
	if got := NumClusters(labels); got != 4 {
		t.Fatalf("found %d clusters, want 4", got)
	}
	if ari := ARI(labels, truth); ari < 0.99 {
		t.Fatalf("ARI = %v, want ~1", ari)
	}
}

func TestOpticsMatchesDBSCAN(t *testing.T) {
	// Core guarantee: cutting the OPTICS plot at eps reproduces
	// DBSCAN's clustering for the same parameters.
	x, _ := blobs(3, 35, 15, 0.5, 5)
	const eps, minPts = 1.5, 5
	res := Run(x, minPts, math.Inf(1))
	fromOptics := res.ExtractDBSCAN(eps)
	direct := DBSCAN(x, eps, minPts)
	if ari := ARI(fromOptics, direct); ari < 0.95 {
		t.Fatalf("OPTICS eps-cut diverges from DBSCAN: ARI %v", ari)
	}
	if NumClusters(fromOptics) != NumClusters(direct) {
		t.Fatalf("cluster counts differ: %d vs %d", NumClusters(fromOptics), NumClusters(direct))
	}
}

func TestExtractXiRecoversBlobs(t *testing.T) {
	x, truth := blobs(3, 50, 25, 0.4, 6)
	res := Run(x, 5, math.Inf(1))
	// minClusterSize near the blob size suppresses nested sub-leaves;
	// like scikit-learn, small minClusterSize yields a finer hierarchy.
	labels := res.ExtractXi(0.15, 5, 30)
	if got := NumClusters(labels); got != 3 {
		t.Fatalf("xi extraction found %d clusters, want 3", got)
	}
	if ari := ARI(labels, truth); ari < 0.8 {
		t.Fatalf("xi ARI = %v", ari)
	}
}

func TestNoiseDetection(t *testing.T) {
	// One dense blob plus isolated far-away points: the isolates must
	// come out as noise under an eps cut.
	g := rng.New(7)
	x := mat.New(55, 2)
	for i := 0; i < 50; i++ {
		x.Set(i, 0, g.Norm()*0.3)
		x.Set(i, 1, g.Norm()*0.3)
	}
	for i := 0; i < 5; i++ {
		x.Set(50+i, 0, 100+50*float64(i))
		x.Set(50+i, 1, -100*float64(i+1))
	}
	res := Run(x, 5, math.Inf(1))
	labels := res.ExtractDBSCAN(2.0)
	for i := 50; i < 55; i++ {
		if labels[i] != Noise {
			t.Fatalf("outlier %d labeled %d, want noise", i, labels[i])
		}
	}
	if NumClusters(labels) != 1 {
		t.Fatalf("want exactly 1 cluster, got %d", NumClusters(labels))
	}
}

func TestMaxEpsLimitsReachability(t *testing.T) {
	x, _ := blobs(2, 30, 50, 0.3, 8)
	res := Run(x, 5, 5.0)
	// With maxEps far below the blob separation, the second blob's
	// entry point keeps infinite reachability.
	infCount := 0
	for _, r := range res.Reachability {
		if math.IsInf(r, 1) {
			infCount++
		}
	}
	if infCount < 2 {
		t.Fatalf("expected >= 2 unreachable entries, got %d", infCount)
	}
}

func TestEmptyAndTinyInputs(t *testing.T) {
	res := Run(mat.New(0, 2), 5, math.Inf(1))
	if len(res.Order) != 0 {
		t.Fatal("empty input produced an ordering")
	}
	one := mat.FromRows([][]float64{{1, 2}})
	res = Run(one, 5, math.Inf(1))
	if len(res.Order) != 1 {
		t.Fatal("single point not ordered")
	}
	labels := res.ExtractDBSCAN(1)
	if labels[0] != Noise {
		t.Fatal("single point should be noise (cannot be core with minPts=5)")
	}
}

func TestDBSCANBorderPoints(t *testing.T) {
	// A point just inside eps of a core point but itself not core must
	// join the cluster as a border point.
	x := mat.FromRows([][]float64{
		{0, 0}, {0.1, 0}, {0, 0.1}, {0.1, 0.1}, // dense core
		{0.9, 0}, // border: within eps=1 of the core, not core itself
	})
	labels := DBSCAN(x, 1.0, 4)
	if labels[4] == Noise {
		t.Fatal("border point marked as noise")
	}
	if labels[4] != labels[0] {
		t.Fatal("border point not attached to the cluster")
	}
}

func TestARIProperties(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2}
	if got := ARI(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ARI(a,a) = %v", got)
	}
	// Permuted labels: still perfect agreement.
	b := []int{5, 5, 9, 9, 7, 7}
	if got := ARI(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ARI under relabeling = %v", got)
	}
	// Completely split vs completely merged: low score.
	c := []int{0, 1, 2, 3, 4, 5}
	d := []int{0, 0, 0, 0, 0, 0}
	if got := ARI(c, d); got > 0.01 {
		t.Fatalf("ARI of unrelated labelings = %v", got)
	}
}

func TestARIMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	ARI([]int{1}, []int{1, 2})
}

func TestRunDeterministic(t *testing.T) {
	x, _ := blobs(3, 25, 10, 0.5, 9)
	a := Run(x, 5, math.Inf(1))
	b := Run(x, 5, math.Inf(1))
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			t.Fatal("OPTICS ordering not deterministic")
		}
	}
}

// runOracle is the classical heap-based OPTICS formulation: a VP-tree
// neighbor query per point and an indexed decrease-key seed heap with
// a (reachability, index) tie-break. Run must reproduce it bit for bit.
func runOracle(x *mat.Matrix, minPts int, maxEps float64) *Result {
	n := x.RowsN
	if minPts < 2 {
		minPts = 2
	}
	res := &Result{
		Order:        make([]int, 0, n),
		Reachability: make([]float64, n),
		CoreDist:     make([]float64, n),
	}
	for i := range res.Reachability {
		res.Reachability[i] = math.Inf(1)
		res.CoreDist[i] = math.Inf(1)
	}
	if n == 0 {
		return res
	}

	tree := knn.NewVPTree(x)
	neighbors := func(i int) []knn.Neighbor {
		if math.IsInf(maxEps, 1) {
			return tree.KNearest(x.Row(i), n-1, i)
		}
		nbs := tree.Radius(x.Row(i), maxEps)
		out := nbs[:0]
		for _, nb := range nbs {
			if nb.Index != i {
				out = append(out, nb)
			}
		}
		return out
	}
	coreDist := func(nbs []knn.Neighbor) float64 {
		if len(nbs) < minPts-1 {
			return math.Inf(1)
		}
		d := nbs[minPts-2].Dist
		if d > maxEps {
			return math.Inf(1)
		}
		return d
	}
	update := func(nbs []knn.Neighbor, cd float64, processed []bool, seeds *reachHeap) {
		for _, nb := range nbs {
			if processed[nb.Index] {
				continue
			}
			newReach := math.Max(cd, nb.Dist)
			if newReach < res.Reachability[nb.Index] {
				res.Reachability[nb.Index] = newReach
				seeds.upsert(nb.Index, newReach)
			}
		}
	}

	processed := make([]bool, n)
	for start := 0; start < n; start++ {
		if processed[start] {
			continue
		}
		processed[start] = true
		res.Order = append(res.Order, start)
		nbs := neighbors(start)
		cd := coreDist(nbs)
		res.CoreDist[start] = cd
		if math.IsInf(cd, 1) {
			continue
		}
		seeds := newReachHeap(n)
		update(nbs, cd, processed, seeds)
		for seeds.Len() > 0 {
			q := heap.Pop(seeds).(heapItem).index
			processed[q] = true
			res.Order = append(res.Order, q)
			qnbs := neighbors(q)
			qcd := coreDist(qnbs)
			res.CoreDist[q] = qcd
			if !math.IsInf(qcd, 1) {
				update(qnbs, qcd, processed, seeds)
			}
		}
	}
	return res
}

// reachHeap is the oracle's indexed min-heap on reachability with
// decrease-key.
type reachHeap struct {
	items []heapItem
	pos   []int // point index -> heap position, -1 if absent
}

type heapItem struct {
	index int
	reach float64
}

func newReachHeap(n int) *reachHeap {
	h := &reachHeap{pos: make([]int, n)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

func (h *reachHeap) Len() int { return len(h.items) }
func (h *reachHeap) Less(i, j int) bool {
	if h.items[i].reach != h.items[j].reach {
		return h.items[i].reach < h.items[j].reach
	}
	return h.items[i].index < h.items[j].index
}
func (h *reachHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i].index] = i
	h.pos[h.items[j].index] = j
}
func (h *reachHeap) Push(x interface{}) {
	item := x.(heapItem)
	h.pos[item.index] = len(h.items)
	h.items = append(h.items, item)
}
func (h *reachHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	item := old[n-1]
	h.items = old[:n-1]
	h.pos[item.index] = -1
	return item
}

func (h *reachHeap) upsert(index int, reach float64) {
	if p := h.pos[index]; p >= 0 {
		h.items[p].reach = reach
		heap.Fix(h, p)
		return
	}
	heap.Push(h, heapItem{index: index, reach: reach})
}

// oracleInputs returns 2-D point sets of n rows that stress ties:
// continuous blobs, coordinates quantised to a coarse grid (many equal
// distances), and every point duplicated (zero distances).
func oracleInputs(n int, seed uint64) map[string]*mat.Matrix {
	cont, _ := blobs(3, (n+2)/3, 1.5, 0.4, seed)
	cont = mat.FromRows(rowsOf(cont)[:n])
	quant := cont.Clone()
	for i := range quant.Data {
		quant.Data[i] = math.Round(quant.Data[i]*10) / 10
	}
	dup := mat.New(n, 2)
	for i := 0; i < n; i++ {
		copy(dup.Row(i), cont.Row(i/2))
	}
	return map[string]*mat.Matrix{"continuous": cont, "quantised": quant, "duplicates": dup}
}

func rowsOf(x *mat.Matrix) [][]float64 {
	rows := make([][]float64, x.RowsN)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	return rows
}

// TestRunMatchesHeapOracle is the differential test for the dense
// rewrite: Order, Reachability, CoreDist and both extractions must be
// bit-identical to the heap + VP-tree formulation across sizes, tie
// patterns, generating radii and minPts. The largest size keeps only
// the tie-heavy inputs to bound the oracle's cost under -race.
func TestRunMatchesHeapOracle(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 200, 1500} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			for kind, x := range oracleInputs(n, uint64(n)+1) {
				if n > 200 && kind == "continuous" {
					continue
				}
				for _, maxEps := range []float64{math.Inf(1), 0.5, 0.05} {
					for _, minPts := range []int{2, 5, 11} {
						checkAgainstOracle(t, fmt.Sprintf("%s/eps=%v/minPts=%d", kind, maxEps, minPts), x, minPts, maxEps)
					}
				}
			}
		})
	}
}

func checkAgainstOracle(t *testing.T, name string, x *mat.Matrix, minPts int, maxEps float64) {
	t.Helper()
	got, want := Run(x, minPts, maxEps), runOracle(x, minPts, maxEps)
	if err := sameResult(got, want); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, xi := range []float64{0.05, 0.15} {
		if err := sameLabels(got.ExtractXi(xi, minPts, 0), want.ExtractXi(xi, minPts, 0)); err != nil {
			t.Fatalf("%s: ExtractXi(%v): %v", name, xi, err)
		}
	}
	for _, eps := range []float64{0.05, 0.2, 1} {
		if err := sameLabels(got.ExtractDBSCAN(eps), want.ExtractDBSCAN(eps)); err != nil {
			t.Fatalf("%s: ExtractDBSCAN(%v): %v", name, eps, err)
		}
	}
}

func sameResult(got, want *Result) error {
	if len(got.Order) != len(want.Order) {
		return fmt.Errorf("order length %d, want %d", len(got.Order), len(want.Order))
	}
	for i := range want.Order {
		if got.Order[i] != want.Order[i] {
			return fmt.Errorf("order[%d] = %d, want %d", i, got.Order[i], want.Order[i])
		}
	}
	for i := range want.Reachability {
		if math.Float64bits(got.Reachability[i]) != math.Float64bits(want.Reachability[i]) {
			return fmt.Errorf("reachability[%d] = %v, want %v", i, got.Reachability[i], want.Reachability[i])
		}
		if math.Float64bits(got.CoreDist[i]) != math.Float64bits(want.CoreDist[i]) {
			return fmt.Errorf("core distance[%d] = %v, want %v", i, got.CoreDist[i], want.CoreDist[i])
		}
	}
	return nil
}

func sameLabels(got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d labels, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("label[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}
