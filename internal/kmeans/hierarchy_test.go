package kmeans

import (
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
// skewed 2-d sample, K = 16/64/250, MaxIters 20. An unpruned run
// evaluates n·k·(Iters+1) point-to-centroid distances per level. Seeding
// evaluates n·k of them whatever the bounds do, so the Lloyd passes'
// share (the rest) is pinned on its own.
//
// Read at pinning: 812 292 of 11 360 000 (7.15 %), of which the Lloyd
// passes 152 292 (1.34 %).
func TestClusterHierarchyDistanceEvals(t *testing.T) {
	points := clusterPoints(2000, 2, 6, 1)
	rng := rand.New(rand.NewSource(1))
	var evals, seeding, unpruned int64
	for _, k := range []int{16, 64, 250} {
		before := obsDistanceEvals.Value()
		res, err := Cluster(points, Params{K: k, MaxIters: 20}, rng)
		if err != nil {
			t.Fatal(err)
		}
		got := obsDistanceEvals.Value() - before
		seed := int64(len(points) * len(res.Centroids))
		full := seed * int64(res.Iters+1)
		t.Logf("K=%d: %d iterations, %d of %d distance evaluations (%.2f%%), %d in Lloyd passes (%.2f%%)",
			k, res.Iters, got, full, 100*float64(got)/float64(full), got-seed, 100*float64(got-seed)/float64(full))
		evals += got
		seeding += seed
		unpruned += full
	}
	share := float64(evals) / float64(unpruned)
	lloydShare := float64(evals-seeding) / float64(unpruned)
	t.Logf("hierarchy: %d of %d distance evaluations (%.2f%%), %d in Lloyd passes (%.2f%%)",
		evals, unpruned, 100*share, evals-seeding, 100*lloydShare)
	if share > 0.08 || lloydShare > 0.018 {
		t.Errorf("bounds left %.2f%% of the unpruned distance evaluations (Lloyd passes %.2f%%), want ≤ 8%% (≤ 1.8%%)",
			100*share, 100*lloydShare)
	}
}

// BenchmarkClusterHierarchy fits the clustering-discovery hierarchy as
// explore.newClusterDiscovery does at session creation with default
// options: a 2000-point sample of a skewed 2-D space, three levels
// (K = 16, 64, 250), MaxIters 20, one rng threaded through all three.
func BenchmarkClusterHierarchy(b *testing.B) {
	points := clusterPoints(2000, 2, 6, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(1))
		for _, k := range []int{16, 64, 250} {
			if _, err := Cluster(points, Params{K: k, MaxIters: 20}, rng); err != nil {
				b.Fatal(err)
			}
		}
	}
}
