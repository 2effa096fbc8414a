// Package kmeans implements Lloyd's k-means clustering with k-means++
// seeding. AIDE uses it in two places: the skew-aware object-discovery
// optimization partitions the data space into clusters and samples around
// centroids instead of grid-cell centers (Section 3.1), and the
// clustering-based misclassified exploitation groups false negatives so
// one sample-extraction query serves a whole cluster (Section 4.2).
package kmeans

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/obs"
	"github.com/explore-by-example/aide/internal/par"
)

// Parallel kernels: assignment (nearest-centroid search) and seeding
// (distance-to-nearest-center). minAssignChunk keeps goroutine overhead
// off small point sets.
var (
	kernelAssign = par.NewKernel("kmeans.assign")
	kernelSeed   = par.NewKernel("kmeans.seed")
)

const minAssignChunk = 256

// obsClusterSeconds is the wall time of one Cluster call (observational
// only, resolved once).
var obsClusterSeconds = obs.GetHistogram("kmeans.cluster_seconds")

// Result holds the output of a clustering run.
type Result struct {
	// Centroids are the k cluster centers (k may be reduced when fewer
	// distinct points exist).
	Centroids []geom.Point
	// Assign maps each input point index to its centroid index.
	Assign []int
	// Sizes[i] is the number of points assigned to centroid i.
	Sizes []int
	// Inertia is the total squared distance of points to their centroids.
	Inertia float64
	// Iters is the number of Lloyd iterations performed.
	Iters int
}

// Radii returns, for every cluster, the maximum Chebyshev distance from
// its centroid to any of its members: the per-cluster sampling radius
// used by clustering-based discovery ("gamma < delta, where delta is the
// radius of the cluster", Section 3.1). An empty cluster has radius 0.
func (r *Result) Radii(points []geom.Point) []float64 {
	radii := make([]float64, len(r.Centroids))
	for i, c := range r.Assign {
		if d := r.Centroids[c].ChebyshevDist(points[i]); d > radii[c] {
			radii[c] = d
		}
	}
	return radii
}

// BoundingRect returns the axis-aligned bounding box of cluster c's
// members expanded by y on every side and clipped to bounds. This is the
// sampling area of clustering-based misclassified exploitation: "we
// collect samples within a distance y from the farthest cluster member in
// each dimension" (Section 4.2). It returns ok=false for an empty
// cluster.
func (r *Result) BoundingRect(points []geom.Point, c int, y float64, bounds geom.Rect) (geom.Rect, bool) {
	var box geom.Rect
	for i, a := range r.Assign {
		if a != c {
			continue
		}
		p := points[i]
		if box == nil {
			box = make(geom.Rect, len(p))
			for d := range p {
				box[d] = geom.Interval{Lo: p[d], Hi: p[d]}
			}
			continue
		}
		for d := range p {
			if p[d] < box[d].Lo {
				box[d].Lo = p[d]
			}
			if p[d] > box[d].Hi {
				box[d].Hi = p[d]
			}
		}
	}
	if box == nil {
		return nil, false
	}
	return box.Expand(y, bounds), true
}

// Params controls a clustering run.
type Params struct {
	// K is the requested number of clusters; it is reduced to the number
	// of distinct points when larger.
	K int
	// MaxIters bounds Lloyd iterations (default 50 when zero).
	MaxIters int
	// Tol stops early when centroid movement falls below it (default 1e-6).
	Tol float64
	// Workers sets the worker count for the assignment step: 0 means
	// automatic (AIDE_WORKERS or GOMAXPROCS), 1 forces the sequential
	// path. Results are bit-identical at every worker count: each point's
	// nearest centroid is independent, and every floating-point
	// accumulation (centroid sums, inertia) stays sequential in point
	// order.
	Workers int
}

// ErrBadParams marks Params rejected by Validate.
var ErrBadParams = errors.New("kmeans: invalid params")

// Validate rejects nonsensical parameter values with a typed error. Zero
// values are legal (they select the documented defaults); negatives and
// non-finite tolerances are construction bugs and fail fast.
func (p Params) Validate() error {
	if p.K < 0 {
		return fmt.Errorf("%w: K = %d", ErrBadParams, p.K)
	}
	if p.MaxIters < 0 {
		return fmt.Errorf("%w: MaxIters = %d", ErrBadParams, p.MaxIters)
	}
	if p.Tol < 0 || math.IsNaN(p.Tol) || math.IsInf(p.Tol, 0) {
		return fmt.Errorf("%w: Tol = %v", ErrBadParams, p.Tol)
	}
	if p.Workers < 0 {
		return fmt.Errorf("%w: Workers = %d", ErrBadParams, p.Workers)
	}
	return nil
}

// Cluster partitions points into K clusters. The run is deterministic for
// a given rng state. It returns an error for empty input or K < 1.
func Cluster(points []geom.Point, params Params, rng *rand.Rand) (*Result, error) {
	return ClusterCtx(context.Background(), points, params, rng)
}

// ClusterCtx is Cluster with cooperative cancellation: the Lloyd loop
// checks ctx once per iteration and returns ctx.Err() when cancelled
// (the partial result is dropped). An uncancelled ctx yields a result
// bit-identical to Cluster's.
func ClusterCtx(ctx context.Context, points []geom.Point, params Params, rng *rand.Rand) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("kmeans: no points")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if params.K < 1 {
		return nil, fmt.Errorf("%w: K = %d", ErrBadParams, params.K)
	}
	if params.MaxIters == 0 {
		params.MaxIters = 50
	}
	if params.Tol == 0 {
		params.Tol = 1e-6
	}
	start := time.Now()

	// Every kernel below reads points from one row-major array (point i
	// is pts[i*d:(i+1)*d]) and centroids from another, so the distance
	// loops walk contiguous memory instead of chasing a slice header per
	// point and per centroid.
	n, d := len(points), len(points[0])
	pts := make([]float64, n*d)
	for i, p := range points {
		if len(p) != d {
			return nil, fmt.Errorf("kmeans: point %d has %d dims, want %d", i, len(p), d)
		}
		copy(pts[i*d:], p)
	}

	cents, k := seedPlusPlus(pts, n, d, params.K, rng, params.Workers)
	assign := make([]int, n)
	sizes := make([]int, k)

	// Double-buffered centroid set: sums accumulate into next (never the
	// buffer cents currently aliases) and the two swap at the end of each
	// iteration, so Lloyd's loop allocates nothing per iteration.
	next := make([]float64, k*d)

	iters := 0
	for iters < params.MaxIters {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("kmeans: cancelled after %d iterations: %w", iters, err)
		}
		iters++
		// Assignment step: each point's nearest centroid is independent,
		// so it fans out across the worker pool.
		assignNearest(pts, cents, k, d, params.Workers, assign, nil)
		// Update step: sizes and centroid sums in one pass, sequential in
		// point order so the float sums are the same at every worker count.
		clear(sizes)
		clear(next)
		for i, a := range assign {
			sizes[a]++
			sum := next[a*d : (a+1)*d]
			for j, x := range pts[i*d : (i+1)*d] {
				sum[j] += x
			}
		}
		moved := 0.0
		for c := 0; c < k; c++ {
			nc := next[c*d : (c+1)*d]
			if sizes[c] == 0 {
				// Re-seed an empty cluster at the farthest point from its
				// nearest old centroid to keep k stable.
				f := farthestPoint(pts, cents, n, k, d)
				copy(nc, pts[f*d:(f+1)*d])
				moved = math.Inf(1)
				continue
			}
			for j := range nc {
				nc[j] /= float64(sizes[c])
			}
			moved += math.Sqrt(sqDist(cents[c*d:(c+1)*d], nc))
		}
		cents, next = next, cents
		if moved < params.Tol {
			break
		}
	}

	// Final assignment with the converged centroids. Distances compute in
	// parallel; inertia accumulates sequentially in point order so the
	// float sum is reproducible at every worker count.
	res := &Result{Centroids: make([]geom.Point, k), Assign: assign, Sizes: sizes, Iters: iters}
	for c := range res.Centroids {
		res.Centroids[c] = cents[c*d : (c+1)*d : (c+1)*d]
	}
	dists := make([]float64, n)
	assignNearest(pts, cents, k, d, params.Workers, assign, dists)
	clear(sizes)
	for i, a := range assign {
		sizes[a]++
		res.Inertia += dists[i]
	}
	obsClusterSeconds.Observe(time.Since(start).Seconds())
	return res, nil
}

// nearest is the one distance kernel: it returns the index of the
// centroid (the k rows of stride len(p) in cents) nearest to p and the
// squared distance to it. Ties keep the lowest index, and each distance
// sums its squared coordinate differences in dimension order, so a given
// (point, centroid) pair yields the same float wherever it is evaluated.
func nearest(p, cents []float64, k int) (best int, bestD float64) {
	d := len(p)
	bestD = math.Inf(1)
	for c := 0; c < k; c++ {
		if s := sqDist(p, cents[c*d:(c+1)*d]); s < bestD {
			best, bestD = c, s
		}
	}
	return best, bestD
}

func sqDist(a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	for i, x := range a {
		t := x - b[i]
		s += t * t
	}
	return s
}

// assignNearest writes each point's nearest-centroid index into assign
// and its squared distance into dists (dists may be nil), chunking the
// points across the worker pool. Writes are disjoint per point, so the
// result is independent of the worker count.
func assignNearest(pts, cents []float64, k, d, workers int, assign []int, dists []float64) {
	// Work hint: one distance computation per (point, centroid) pair.
	// Misclassified-exploitation clusterings over a handful of false
	// negatives run inline; full-dataset discovery clusterings still fan
	// out.
	n := len(assign)
	par.ForWork(kernelAssign, workers, n, minAssignChunk, n*k, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			best, bestD := nearest(pts[i*d:(i+1)*d], cents, k)
			assign[i] = best
			if dists != nil {
				dists[i] = bestD
			}
		}
	})
}

// seedPlusPlus picks initial centroids with the k-means++ strategy:
// subsequent centers are drawn with probability proportional to squared
// distance from the nearest existing center. Duplicated points cannot
// yield more centers than distinct values, so the returned row count may
// be smaller than k.
//
// dist keeps each point's distance to its nearest center so far, and a
// round folds in only the center the previous round added: O(n) per
// round, O(n*k) overall. A strict-< minimum over the same per-pair
// distances is exact whatever order they arrive in, so dist is the same
// array a recomputation against every center would give.
func seedPlusPlus(pts []float64, n, d, k int, rng *rand.Rand, workers int) ([]float64, int) {
	cents := make([]float64, 0, min(k, n)*d)
	newest := rng.Intn(n)
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	chosen := 0
	for {
		cents = append(cents, pts[newest*d:(newest+1)*d]...)
		if chosen++; chosen == k {
			break
		}
		// Distance to the newest center is independent per point; the
		// total (which shapes the rng draw) accumulates sequentially in
		// point order to stay reproducible at every worker count. One
		// round is n distances, so discovery-sized samples stay inline.
		center := cents[len(cents)-d:]
		par.ForWork(kernelSeed, workers, n, minAssignChunk, n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				if s := sqDist(pts[i*d:(i+1)*d], center); s < dist[i] {
					dist[i] = s
				}
			}
		})
		var total float64
		for _, w := range dist {
			total += w
		}
		if total == 0 {
			break // fewer distinct points than k
		}
		newest = weightedPick(dist, rng.Float64()*total)
	}
	return cents, chosen
}

// weightedPick returns the first index at which the running sum of the
// weights w reaches pick, skipping zero-weight entries (points that are
// already centers). pick is u*total for u in [0, 1); when rounding leaves
// a positive residue after the last weight, the last positive-weight
// index is the answer the exact arithmetic would have given.
func weightedPick(w []float64, pick float64) int {
	last := 0
	for i, x := range w {
		if x <= 0 {
			continue
		}
		if pick -= x; pick <= 0 {
			return i
		}
		last = i
	}
	return last
}

// farthestPoint returns the index of the point with maximum distance to
// its nearest centroid.
func farthestPoint(pts, cents []float64, n, k, d int) int {
	bestIdx, bestD := 0, -1.0
	for i := 0; i < n; i++ {
		if _, near := nearest(pts[i*d:(i+1)*d], cents, k); near > bestD {
			bestD = near
			bestIdx = i
		}
	}
	return bestIdx
}
