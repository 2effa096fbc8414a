package kmeans

import (
	"context"
	"math/rand"
	"testing"

	"github.com/explore-by-example/aide/internal/geom"
)

// clusterPoints builds n points around nc Gaussian blobs in d dims.
func clusterPoints(n, d, nc int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	centers := make([]geom.Point, nc)
	for i := range centers {
		c := make(geom.Point, d)
		for j := range c {
			c[j] = rng.Float64() * 100
		}
		centers[i] = c
	}
	points := make([]geom.Point, n)
	for i := range points {
		c := centers[rng.Intn(nc)]
		p := make(geom.Point, d)
		for j := range p {
			p[j] = c[j] + rng.NormFloat64()*5
		}
		points[i] = p
	}
	return points
}

// TestClusterHierarchyDistanceEvals pins how much of the unpruned work
// the bounds leave on the discovery hierarchy's shape: a 2000-point
// skewed 2-d sample, K = 16/64/250, MaxIters 20, fitted by ClusterLevels.
// An unpruned run evaluates n·k·(Iters+1) point-to-centroid distances
// per level: n·k in seeding and n·k per Lloyd pass. Seeding's share (what
// its group skips leave of n·k) and the Lloyd passes' share (the rest)
// are pinned each on its own; seeding's is counted by seeding the levels
// again from the same rng seed.
//
// Read at pinning: 281 614 of 11 360 000 (2.48 %), of which seeding
// 129 322 (1.14 %) and the Lloyd passes 152 292 (1.34 %). Before seeding
// skipped whole groups it evaluated all 660 000 (5.81 %), 7.15 % in all.
func TestClusterHierarchyDistanceEvals(t *testing.T) {
	points := clusterPoints(2000, 2, 6, 1)
	ks := []int{16, 64, 250}
	before := obsDistanceEvals.Value()
	levels, err := ClusterLevels(context.Background(), points, ks, Params{MaxIters: 20}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	evals := obsDistanceEvals.Value() - before

	pts := make([]float64, 0, 2*len(points))
	for _, p := range points {
		pts = append(pts, p...)
	}
	rng := rand.New(rand.NewSource(1))
	var seeding, unpruned int64
	for l, k := range ks {
		s := newLloyd(pts, len(points), 2, true)
		s.seed(k, rng)
		res := levels[l]
		full := int64(len(points) * len(res.Centroids) * (res.Iters + 1))
		t.Logf("K=%d: %d iterations, %d of %d unpruned distance evaluations in seeding", k, res.Iters, s.evals, full)
		seeding += s.evals
		unpruned += full
	}
	share := float64(evals) / float64(unpruned)
	seedShare := float64(seeding) / float64(unpruned)
	lloydShare := float64(evals-seeding) / float64(unpruned)
	t.Logf("hierarchy: %d of %d distance evaluations (%.2f%%): seeding %d (%.2f%%), Lloyd passes %d (%.2f%%)",
		evals, unpruned, 100*share, seeding, 100*seedShare, evals-seeding, 100*lloydShare)
	if share > 0.03 || seedShare > 0.014 || lloydShare > 0.018 {
		t.Errorf("bounds left %.2f%% of the unpruned distance evaluations (seeding %.2f%%, Lloyd passes %.2f%%), want ≤ 3%% (≤ 1.4%%, ≤ 1.8%%)",
			100*share, 100*seedShare, 100*lloydShare)
	}
}

// BenchmarkClusterHierarchy fits the clustering-discovery hierarchy as
// explore.newClusterDiscovery does at session creation with default
// options: a 2000-point sample of a skewed 2-D space, three levels
// (K = 16, 64, 250), MaxIters 20, one ClusterLevels call.
func BenchmarkClusterHierarchy(b *testing.B) {
	points := clusterPoints(2000, 2, 6, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(1))
		if _, err := ClusterLevels(context.Background(), points, []int{16, 64, 250}, Params{MaxIters: 20}, rng); err != nil {
			b.Fatal(err)
		}
	}
}
