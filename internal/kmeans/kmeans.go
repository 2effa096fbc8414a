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
	"slices"
	"sync"
	"time"

	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/obs"
)

// obsClusterSeconds is the wall time of one ClusterLevels call, all its
// levels together; a Cluster call is a one-level one (observational only,
// resolved once).
var obsClusterSeconds = obs.GetHistogram("kmeans.cluster_seconds")

// obsDistanceEvals counts the point-to-centroid squared distances a run
// evaluates: in each k-means++ round, the members of the seed groups the
// new center can reach (n per round when unpruned), which also settles
// the first Lloyd assignment; then whatever the bounds leave of the later
// assignments, the empty-cluster re-seeds and the final pass. Unpruned,
// a run costs n·k·(Iters+1). Centroid-to-centroid gaps are not counted.
var obsDistanceEvals = obs.GetCounter("kmeans.distance_evals")

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
// bit-identical to Cluster's. It is ClusterLevels with one level, which
// starts no goroutine.
func ClusterCtx(ctx context.Context, points []geom.Point, params Params, rng *rand.Rand) (*Result, error) {
	res, err := ClusterLevels(ctx, points, []int{params.K}, params, rng)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// ClusterLevels fits one clustering per entry of ks to the same points,
// each with params but K = ks[l] (params.K is not read). Every Result
// field, and the position rng is left at, is bit-identical to successive
// ClusterCtx calls sharing rng.
//
// Only k-means++ seeding reads rng, so a level's seeds depend on the
// earlier levels' seeding and never on their Lloyd loops. The levels are
// seeded on the calling goroutine in level order, and each level's Lloyd
// loop starts on its own goroutine as soon as its seeding ends; the last
// level's runs inline. So the wait is the seedings plus the last Lloyd
// loop, not the sum of every level's fit. Each Lloyd loop checks ctx once
// per iteration; on an error the call waits for every level and returns
// the first error by level.
func ClusterLevels(ctx context.Context, points []geom.Point, ks []int, params Params, rng *rand.Rand) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("kmeans: no points")
	}
	if len(ks) == 0 {
		return nil, fmt.Errorf("%w: no levels", ErrBadParams)
	}
	for _, k := range ks {
		params.K = k
		if err := params.Validate(); err != nil {
			return nil, err
		}
		if k < 1 {
			return nil, fmt.Errorf("%w: K = %d", ErrBadParams, k)
		}
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
	// point and per centroid. The levels share the one copy.
	n, d := len(points), len(points[0])
	pts := make([]float64, n*d)
	for i, p := range points {
		if len(p) != d {
			return nil, fmt.Errorf("kmeans: point %d has %d dims, want %d", i, len(p), d)
		}
		copy(pts[i*d:], p)
	}
	prune := prunable(pts, d)

	res := make([]*Result, len(ks))
	errs := make([]error, len(ks))
	var wg sync.WaitGroup
	for lv, k := range ks {
		if lv > 0 {
			if err := ctx.Err(); err != nil {
				errs[lv] = fmt.Errorf("kmeans: cancelled before level %d: %w", lv, err)
				break
			}
		}
		l := newLloyd(pts, n, d, prune)
		cents := l.seed(k, rng)
		if lv == len(ks)-1 {
			res[lv], errs[lv] = l.fit(ctx, cents, params)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[lv], errs[lv] = l.fit(ctx, cents, params)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	obsClusterSeconds.Observe(time.Since(start).Seconds())
	return res, nil
}

// fit runs Lloyd's loop from the seeds in cents to convergence or
// params.MaxIters and returns the clustering.
func (l *lloyd) fit(ctx context.Context, cents []float64, params Params) (*Result, error) {
	defer func() { obsDistanceEvals.Add(l.evals) }()
	n, d, k, pts, assign := l.n, l.d, l.k, l.pts, l.assign
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
		// Seeding left every point at its nearest seed, so the first
		// iteration's assignment step is already done.
		if iters++; iters > 1 {
			l.assignPass(cents, nil)
		}
		// Update step: sizes and centroid sums in one pass, sequential in
		// point order.
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
		far := -1
		for c := 0; c < k; c++ {
			oc, nc := cents[c*d:(c+1)*d], next[c*d:(c+1)*d]
			if sizes[c] == 0 {
				// Re-seed an empty cluster at the farthest point from its
				// nearest old centroid to keep k stable. Every empty
				// cluster of an iteration gets the same point, so it is
				// searched for once.
				if far < 0 {
					far = l.farthestPoint(cents)
				}
				copy(nc, pts[far*d:(far+1)*d])
				moved = math.Inf(1)
			} else {
				for j := range nc {
					nc[j] /= float64(sizes[c])
				}
			}
			step := math.Sqrt(sqDist(oc, nc))
			if sizes[c] > 0 {
				moved += step
			}
			l.drift[c] = step
			// A centroid is stale when a coordinate changed, not when step
			// is 0: a squared difference can underflow.
			if l.stale != nil && !slices.Equal(oc, nc) {
				l.stale[c] = true
			}
		}
		l.shift()
		cents, next = next, cents
		if moved < params.Tol {
			break
		}
	}

	// Final assignment with the converged centroids; inertia accumulates
	// sequentially in point order.
	res := &Result{Centroids: make([]geom.Point, k), Assign: assign, Sizes: sizes, Iters: iters}
	for c := range res.Centroids {
		res.Centroids[c] = cents[c*d : (c+1)*d : (c+1)*d]
	}
	dists := make([]float64, n)
	l.assignPass(cents, dists)
	clear(sizes)
	for i, a := range assign {
		sizes[a]++
		res.Inertia += dists[i]
	}
	return res, nil
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

// nearest is the exact nearest-centroid search: it returns the index of
// the centroid (the k rows of stride len(p) in cents) nearest to p and
// the squared distance to it. Ties keep the lowest index, and each
// distance sums its squared coordinate differences in dimension order, so
// a given (point, centroid) pair yields the same float wherever it is
// evaluated.
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

// Pruning limits. Beyond them a run keeps no bounds and scans every point
// against every centroid: a coordinate of magnitude above maxPruneAbs
// could overflow a squared distance (and NaN/±Inf void the triangle
// inequality), above maxPruneDims the relative margin would have to grow
// past usefulness, and above maxPruneK the k×k centroid gap table would
// outgrow the points.
const (
	maxPruneAbs  = 1e100
	maxPruneDims = 1024
	maxPruneK    = 1024
	// boundSlack is an absolute widening, in distance units, that covers
	// squared coordinate differences underflowing to subnormals or zero.
	boundSlack = 1e-150
)

// lloyd is the assignment state of one run, pruned by Hamerly's bounds
// (Hamerly, "Making k-means even faster", SDM 2010). For point i assigned
// to a, upper[i] bounds its distance to centroid a from above and
// lower[i] its distance to every other centroid from below; half[c]
// bounds half the distance from centroid c to its nearest other centroid
// from below. When upper[i] is below max(half[a], lower[i]), no other
// centroid can be nearer than a and the point is skipped.
//
// Every bound is kept conservative in floating point: a new upper bound
// is widened and a new lower bound narrowed by a relative margin 32 times
// sqDist's rounding error plus boundSlack, and every test widens once
// more. So a skip implies every other centroid's sqDist is strictly
// greater than a's, and the exact scan would have returned a. The points
// the bounds cannot settle are rescanned exactly, so assignments, and
// with them every Result field, are bit-identical to an unpruned run.
type lloyd struct {
	pts     []float64
	n, d, k int
	evals   int64 // point-to-centroid distances evaluated
	prune   bool  // the input admits bounds; else every pass scans all

	assign       []int     // per point: its centroid
	upper, lower []float64 // per point: the bounds above
	half, drift  []float64 // per centroid: the bound above; distance moved by the last update
	grow, shrink float64   // 1 ± the relative margin

	// The centroid gap table, when pruning: gap holds the k×k squared
	// gaps of the current centroids, near[c] is c's nearest other
	// centroid (-1 for none) at squared gap nearGap[c], and stale marks
	// the centroids that moved since the table was last refreshed (moved
	// lists them during a refresh).
	gap, nearGap []float64
	near, moved  []int
	stale        []bool
}

// prunable reports whether the flat points pts of d dimensions admit
// bounds: every coordinate finite and at most maxPruneAbs in magnitude,
// and d at most maxPruneDims.
func prunable(pts []float64, d int) bool {
	if d > maxPruneDims {
		return false
	}
	for _, x := range pts {
		if !(math.Abs(x) <= maxPruneAbs) { // also NaN
			return false
		}
	}
	return true
}

func newLloyd(pts []float64, n, d int, prune bool) *lloyd {
	margin := 32 * float64(d+2) * 0x1p-53
	return &lloyd{pts: pts, n: n, d: d, prune: prune, grow: 1 + margin, shrink: 1 - margin}
}

// up widens an upper bound; down narrows a lower bound.
func (l *lloyd) up(x float64) float64   { return x*l.grow + boundSlack }
func (l *lloyd) down(x float64) float64 { return x*l.shrink - boundSlack }

// seed picks the initial centroids with the k-means++ strategy:
// subsequent centers are drawn with probability proportional to squared
// distance from the nearest existing center. Duplicated points cannot
// yield more centers than distinct values, so it may pick fewer than k;
// l.k is the count.
//
// dist keeps each point's distance to its nearest center so far, and a
// round folds in only the center just added. Centers fold in index order
// with a strict <, so every point ends at the centroid nearest would
// return, at nearest's float: that is the first Lloyd iteration's
// assignment, and the second-nearest distance tracked alongside gives its
// lower bound. The total that scales the draw sums dist in point order.
//
// When pruning, a round visits only the seed groups (seedGroups) the new
// center can reach; otherwise it visits every point.
func (l *lloyd) seed(k int, rng *rand.Rand) []float64 {
	n, d, pts := l.n, l.d, l.pts
	cents := make([]float64, 0, min(k, n)*d)
	l.assign = make([]int, n)
	dist, second := make([]float64, n), make([]float64, n)
	for i := range dist {
		dist[i], second[i] = math.Inf(1), math.Inf(1)
	}
	var g seedGroups
	if l.prune {
		g = newSeedGroups(n, k)
	}
	newest := rng.Intn(n)
	for c := 0; ; c++ {
		cents = append(cents, pts[newest*d:(newest+1)*d]...)
		if l.prune {
			l.seedGrouped(&g, cents, dist, second)
		} else {
			center := cents[c*d:]
			for i := range dist {
				l.foldSeed(i, c, sqDist(pts[i*d:(i+1)*d], center), dist, second)
			}
			l.evals += int64(n)
		}
		var total float64
		for _, x := range dist {
			total += x
		}
		if c+1 == k || total == 0 { // total 0: fewer distinct points than k
			l.k = c + 1
			break
		}
		newest = weightedPick(dist, rng.Float64()*total)
	}
	k = l.k
	l.half, l.drift = make([]float64, k), make([]float64, k)
	if l.prune = l.prune && k <= maxPruneK; l.prune {
		l.gap = make([]float64, k*k)
		l.nearGap, l.near, l.moved, l.stale = make([]float64, k), make([]int, k), make([]int, 0, k), make([]bool, k)
		for c := range l.stale {
			l.stale[c] = true // the table has never been filled
		}
		for i := range dist {
			dist[i], second[i] = l.up(math.Sqrt(dist[i])), l.down(math.Sqrt(second[i]))
		}
		l.upper, l.lower = dist, second
	}
	return cents
}

// foldSeed folds center c at squared distance s from point i into the
// point's nearest and second-nearest seed distances. It reports whether
// c became the nearest.
func (l *lloyd) foldSeed(i, c int, s float64, dist, second []float64) bool {
	if s < dist[i] {
		second[i], dist[i], l.assign[i] = dist[i], s, c
		return true
	}
	if s < second[i] {
		second[i] = s
	}
	return false
}

// seedGroups partitions the points by nearest seed while seeding prunes:
// each seed's members form a list through next, from head[a] to a -1,
// and reach[a] bounds √dist + √second over them from above. Before the
// first round every point is on one list, from point 0. A round gathers
// the points its center takes on the list from movers, with their reach.
type seedGroups struct {
	movers     int
	moverReach float64
	next, head []int
	reach      []float64
}

func newSeedGroups(n, k int) seedGroups {
	g := seedGroups{next: make([]int, n), head: make([]int, 0, min(k, n)), reach: make([]float64, 0, min(k, n))}
	for i := range g.next {
		g.next[i] = i + 1
	}
	g.next[n-1] = -1
	return g
}

// seedGrouped folds the newest center c (the last row of cents) into the
// seed distances, visiting only the groups c can reach. A point p nearest
// to seed a has D(p,c) ≥ D(a,c) − D(p,a) by the triangle inequality, so
// when the narrowed gap D(a,c) exceeds √dist + √second widened for every
// member, c is farther than each member's second-nearest seed: neither
// place can change and the whole group is skipped. A skip tested point by
// point saves distance evaluations but no time; the loop is bound by its
// branches. A visited group's members are folded exactly, as the
// unpruned round would, so dist, second and assign are bit-identical.
func (l *lloyd) seedGrouped(g *seedGroups, cents []float64, dist, second []float64) {
	d := l.d
	c := len(cents)/d - 1
	center := cents[c*d:]
	g.movers, g.moverReach = -1, 0
	if c == 0 {
		l.seedVisit(g, 0, c, center, dist, second)
	}
	for a, head := range g.head {
		if head >= 0 && l.down(math.Sqrt(sqDist(cents[a*d:(a+1)*d], center))) <= g.reach[a] {
			g.head[a], g.reach[a] = l.seedVisit(g, head, c, center, dist, second)
		}
	}
	g.head = append(g.head, g.movers)
	g.reach = append(g.reach, g.moverReach)
}

// seedVisit folds center c into every point on the list from i, moves
// the points c takes to g's movers, and returns the list of the points
// that stay, with their reach.
func (l *lloyd) seedVisit(g *seedGroups, i, c int, center, dist, second []float64) (kept int, reach float64) {
	d := l.d
	kept = -1
	for i >= 0 {
		next := g.next[i]
		l.evals++
		if l.foldSeed(i, c, sqDist(l.pts[i*d:(i+1)*d], center), dist, second) {
			g.next[i], g.movers = g.movers, i
			g.moverReach = max(g.moverReach, l.seedReach(dist[i], second[i]))
		} else {
			g.next[i], kept = kept, i
			reach = max(reach, l.seedReach(dist[i], second[i]))
		}
		i = next
	}
	return kept, reach
}

// seedReach widens √dist + √second for a seed group's reach.
func (l *lloyd) seedReach(dist, second float64) float64 {
	return l.up(l.up(math.Sqrt(dist)) + l.up(math.Sqrt(second)))
}

// assignPass moves every point to its nearest centroid in cents. With
// dists non-nil it is the final pass: it also writes each point's
// squared distance to its centroid, the float nearest returns.
func (l *lloyd) assignPass(cents []float64, dists []float64) {
	d := l.d
	if !l.prune {
		for i := range l.assign {
			best, bestD := nearest(l.pts[i*d:(i+1)*d], cents, l.k)
			l.evals += int64(l.k)
			l.assign[i] = best
			if dists != nil {
				dists[i] = bestD
			}
		}
		return
	}
	l.gaps(cents)
	for i, a := range l.assign {
		m := max(l.half[a], l.lower[i])
		if dists == nil && l.up(l.upper[i]) < m {
			continue
		}
		da := sqDist(l.pts[i*d:(i+1)*d], cents[a*d:(a+1)*d])
		l.evals++
		if l.upper[i] = l.up(math.Sqrt(da)); l.up(l.upper[i]) >= m {
			a, da = l.rescan(i, a, da, cents)
			l.assign[i] = a
		}
		if dists != nil {
			dists[i] = da
		}
	}
}

// rescan finds point i's nearest centroid exactly, given its distance da
// to its assigned centroid a and a just-tightened upper[i]. It evaluates
// sqDist to a centroid c only when the triangle inequality through a,
// D(p,c) ≥ D(a,c) − upper[i], cannot rule c out of both the nearest and
// the second-nearest place. Every evaluated distance is nearest's float
// and a tie keeps the lower index, so the result is nearest's. The bounds
// are reset from the two places.
func (l *lloyd) rescan(i, a int, da float64, cents []float64) (int, float64) {
	d, k := l.d, l.k
	p := l.pts[i*d : (i+1)*d]
	row := l.gap[a*k : (a+1)*k]
	u := l.upper[i]
	q := ranked{best: a, bestD: da, second: math.Inf(1)}
	limit := math.Inf(1)
	for c, g := range row {
		if g > limit || c == a {
			continue
		}
		l.evals++
		if q.offer(c, sqDist(p, cents[c*d:(c+1)*d])) {
			limit = l.reach(u, q.second)
		}
	}
	l.upper[i] = l.up(math.Sqrt(q.bestD))
	l.lower[i] = l.down(math.Sqrt(q.second))
	return q.best, q.bestD
}

// reach returns the squared gap to the assigned centroid beyond which a
// centroid lies farther from the point than sqrt(s), with margin to
// spare, given the point's upper bound u.
func (l *lloyd) reach(u, s float64) float64 {
	r := l.up(l.up(math.Sqrt(s)) + u)
	return l.up(r * r)
}

// ranked is a rescan's running nearest centroid and second-nearest
// distance.
type ranked struct {
	best          int
	bestD, second float64
}

// offer folds centroid c at squared distance s in; ties keep the lower
// index as nearest. It reports whether either place changed.
func (q *ranked) offer(c int, s float64) bool {
	if s < q.bestD || (s == q.bestD && c < q.best) {
		q.best, q.bestD, q.second = c, s, q.bestD
		return true
	}
	if s < q.second {
		q.second = s
		return true
	}
	return false
}

// gaps brings the k×k table of squared centroid gaps up to date with
// cents and sets half[c] to a lower bound on half the distance from
// centroid c to its nearest other centroid (+Inf when k = 1). Only the
// rows and columns of stale centroids are recomputed (sqDist is symmetric
// bit for bit), and c's row is rescanned for its nearest only when c or
// its old nearest is stale; otherwise the stale columns are folded in.
// So every gap, and half, is the float a full refill would give.
func (l *lloyd) gaps(cents []float64) {
	d, k := l.d, l.k
	moved := l.moved[:0]
	for c, st := range l.stale {
		if st {
			moved = append(moved, c)
		}
	}
	for _, c := range moved {
		cc := cents[c*d : (c+1)*d]
		l.gap[c*k+c] = 0
		for o := 0; o < k; o++ {
			if o == c || (o < c && l.stale[o]) { // o's row already set this gap
				continue
			}
			s := sqDist(cc, cents[o*d:(o+1)*d])
			l.gap[c*k+o], l.gap[o*k+c] = s, s
		}
	}
	for c := 0; c < k; c++ {
		row := l.gap[c*k : (c+1)*k]
		if nc := l.near[c]; l.stale[c] || nc < 0 || l.stale[nc] {
			l.near[c], l.nearGap[c] = -1, math.Inf(1)
			for o, s := range row {
				if o != c && s < l.nearGap[c] {
					l.near[c], l.nearGap[c] = o, s
				}
			}
		} else {
			for _, o := range moved {
				if s := row[o]; s < l.nearGap[c] {
					l.near[c], l.nearGap[c] = o, s
				}
			}
		}
		l.half[c] = l.down(0.5 * math.Sqrt(l.nearGap[c]))
	}
	clear(l.stale)
}

// shift moves the bounds by the centroid drifts of an update step: a
// point's upper bound grows by its own centroid's drift, its lower bound
// shrinks by the largest drift among the other centroids.
func (l *lloyd) shift() {
	if !l.prune {
		return
	}
	top, first, second := 0, 0.0, 0.0
	for c, p := range l.drift {
		p = l.up(p)
		l.drift[c] = p
		if p > first {
			top, first, second = c, p, first
		} else if p > second {
			second = p
		}
	}
	for i, a := range l.assign {
		l.upper[i] = l.up(l.upper[i] + l.drift[a])
		other := first
		if a == top {
			other = second
		}
		l.lower[i] = l.down(l.lower[i] - other)
	}
}

// farthestPoint returns the index of the point with maximum distance to
// its nearest centroid in cents, the first such point on ties.
func (l *lloyd) farthestPoint(cents []float64) int {
	d := l.d
	bestIdx, bestD := 0, -1.0
	for i := 0; i < l.n; i++ {
		if _, near := nearest(l.pts[i*d:(i+1)*d], cents, l.k); near > bestD {
			bestIdx, bestD = i, near
		}
	}
	l.evals += int64(l.n * l.k)
	return bestIdx
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
