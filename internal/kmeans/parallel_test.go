package kmeans

import (
	"math"
	"math/rand"
	"reflect"
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

// TestClusterParallelEquivalence asserts bit-identical clustering across
// worker counts: same centroids, assignments, sizes, inertia, iterations.
func TestClusterParallelEquivalence(t *testing.T) {
	for _, tc := range []struct{ n, d, k int }{
		{100, 2, 3}, {1500, 2, 8}, {2000, 4, 16}, {50, 3, 60}, // k > distinct
	} {
		for seed := int64(1); seed <= 4; seed++ {
			points := clusterPoints(tc.n, tc.d, 5, seed)
			run := func(workers int) *Result {
				rng := rand.New(rand.NewSource(seed))
				res, err := Cluster(points, Params{K: tc.k, Workers: workers}, rng)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			seq := run(1)
			for _, workers := range []int{2, 8} {
				got := run(workers)
				if !reflect.DeepEqual(got.Assign, seq.Assign) {
					t.Fatalf("n=%d d=%d k=%d seed=%d workers=%d: assignments differ", tc.n, tc.d, tc.k, seed, workers)
				}
				if !reflect.DeepEqual(got.Centroids, seq.Centroids) {
					t.Fatalf("n=%d d=%d k=%d seed=%d workers=%d: centroids differ", tc.n, tc.d, tc.k, seed, workers)
				}
				if !reflect.DeepEqual(got.Sizes, seq.Sizes) {
					t.Fatalf("n=%d d=%d k=%d seed=%d workers=%d: sizes differ", tc.n, tc.d, tc.k, seed, workers)
				}
				if got.Inertia != seq.Inertia || got.Iters != seq.Iters {
					t.Fatalf("n=%d d=%d k=%d seed=%d workers=%d: inertia %v/%v iters %d/%d",
						tc.n, tc.d, tc.k, seed, workers, got.Inertia, seq.Inertia, got.Iters, seq.Iters)
				}
				if math.IsNaN(got.Inertia) {
					t.Fatal("NaN inertia")
				}
			}
		}
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
