package explore

import (
	"fmt"
	"math"

	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/grid"
	"github.com/explore-by-example/aide/internal/kmeans"
)

// discoverer is the strategy interface of the relevant-object-discovery
// phase: step consumes up to budget new labels, pushing samples from yet
// unexplored areas to the user.
type discoverer interface {
	step(s *Session, budget int, res *IterationResult)
	// exhausted reports that the strategy has no sampling areas left.
	exhausted() bool
}

// newDiscoverer builds the discovery strategy selected by the options.
// Under a MaxMemBytes budget, cluster-based strategies fall back to the
// grid when fitting the k-means hierarchy would exceed the cap — the
// grid needs no auxiliary sample matrix. The fallback is decided once at
// session construction, so it is deterministic and recorded as a
// session-permanent degradation.
func newDiscoverer(s *Session) (discoverer, error) {
	strategy := s.opts.Discovery
	if strategy != DiscoveryGrid && s.opts.Budget.MaxMemBytes > 0 &&
		clusterMemEstimate(s) > s.opts.Budget.MaxMemBytes {
		s.permDegr = append(s.permDegr, DegradeDiscoveryGridFallback)
		strategy = DiscoveryGrid
	}
	switch strategy {
	case DiscoveryGrid:
		return newGridDiscovery(s)
	case DiscoveryClustering:
		return newClusterDiscovery(s)
	case DiscoveryHybrid:
		cd, err := newClusterDiscovery(s)
		if err != nil {
			return nil, err
		}
		return &hybridDiscovery{cluster: cd, session: s}, nil
	default:
		return nil, fmt.Errorf("explore: unknown discovery strategy %v", s.opts.Discovery)
	}
}

// clusterMemEstimate approximates the footprint of fitting the k-means
// discovery hierarchy: the normalized sample matrix dominates, with a 2x
// factor covering assignments, centroids and scratch across levels.
func clusterMemEstimate(s *Session) int64 {
	return int64(s.opts.ClusterSampleSize) * int64(s.view.Dims()+2) * 8 * 2
}

// gridDiscovery walks the hierarchical exploration grid of Section 3:
// one sample near each cell's virtual center, zooming into cells that
// produced no relevant object.
type gridDiscovery struct {
	g        *grid.Grid
	frontier []grid.Cell // cells awaiting their sample at the current depth
	next     []grid.Cell // zoom queue: children of unproductive cells
	maxLevel int
	avgCount float64 // expected rows per cell at the frontier's level
	curLevel int
}

func newGridDiscovery(s *Session) (*gridDiscovery, error) {
	g, err := grid.New(s.view.Dims(), s.opts.Beta0)
	if err != nil {
		return nil, err
	}
	level := 0
	if s.opts.DistanceHint > 0 {
		// Distance-based hint (Section 3.1): start at the level whose
		// cell width guarantees one hit per relevant area.
		level = g.LevelForWidth(s.opts.DistanceHint)
	}
	d := &gridDiscovery{g: g, maxLevel: level + s.opts.MaxZoomLevels, curLevel: level}
	if s.opts.RangeHint != nil {
		d.frontier = g.CellsIn(level, s.opts.RangeHint)
	} else {
		d.frontier = g.CellsAt(level)
	}
	// Shuffle so a small per-iteration budget spreads across the space
	// rather than scanning row-major.
	s.rng.Shuffle(len(d.frontier), func(i, j int) {
		d.frontier[i], d.frontier[j] = d.frontier[j], d.frontier[i]
	})
	d.avgCount = float64(s.view.NumRows()) / float64(g.NumCells(level))
	return d, nil
}

func (d *gridDiscovery) exhausted() bool {
	return len(d.frontier) == 0 && len(d.next) == 0
}

func (d *gridDiscovery) step(s *Session, budget int, res *IterationResult) {
	for budget > 0 {
		if s.stepHalted(res) {
			return // iteration abandoned; frontier state stays consistent
		}
		if len(d.frontier) == 0 {
			if len(d.next) == 0 {
				return
			}
			// Promote the zoom queue to the frontier: descend one level.
			d.frontier, d.next = d.next, nil
			d.curLevel = d.frontier[0].Level
			d.avgCount = float64(s.view.NumRows()) / float64(d.g.NumCells(d.curLevel))
			s.rng.Shuffle(len(d.frontier), func(i, j int) {
				d.frontier[i], d.frontier[j] = d.frontier[j], d.frontier[i]
			})
		}
		// Work a window of frontier cells per engine pass: wide enough
		// that one round usually fills the budget even when some cells
		// are empty or re-hit already-labeled rows.
		w := 2*budget + 8
		if w > len(d.frontier) {
			w = len(d.frontier)
		}
		window := d.frontier[:w]

		// Stage 1: one rng-free Count batch decides which cells hold rows
		// and their density-adaptive radius. Sparse cells search a larger
		// area around the center to improve the chance of a hit
		// (Section 3).
		counts := make([]engine.BatchQuery, w)
		for i, cell := range window {
			counts[i] = engine.BatchQuery{Kind: engine.BatchCount, Rect: d.g.Rect(cell)}
		}
		cb := s.view.ExecuteBatch(counts)

		// Stage 2: one sample batch over the non-empty cells. Planning is
		// rng-free; rows are drawn lazily in cell order below, so the rng
		// stream matches the old one-query-per-cell loop exactly.
		full := geom.NewRect(s.view.Dims())
		sampleAt := make([]int, w) // window index -> sample batch index
		var sampleQ []engine.BatchQuery
		var gammas []float64
		for i, cell := range window {
			sampleAt[i] = -1
			count := cb.Count(i)
			if count == 0 {
				continue // empty cell: nothing to retrieve, nothing to zoom for
			}
			frac := s.opts.GammaFrac
			if float64(count) < s.opts.SparseDensityFrac*d.avgCount {
				frac = s.opts.SparseGammaFrac
			}
			gamma := frac * d.g.Width(cell.Level) / 2
			sampleAt[i] = len(sampleQ)
			gammas = append(gammas, gamma)
			sampleQ = append(sampleQ, engine.BatchQuery{
				Kind: engine.BatchSample,
				N:    1,
				Rect: geom.RectAround(d.g.Center(cell), gamma, full),
			})
		}
		var sb *engine.BatchResults
		if len(sampleQ) > 0 {
			sb = s.view.ExecuteBatch(sampleQ)
		}

		// Stage 3: draw, label and zoom cell by cell. Cells the budget (or
		// a halt) never reaches stay on the frontier, their draws never
		// planned into the rng stream.
		consumed := 0
		for i, cell := range window {
			if budget <= 0 || s.stepHalted(res) {
				break
			}
			consumed = i + 1
			si := sampleAt[i]
			if si < 0 {
				continue
			}
			s.stats.PhaseQueries[PhaseDiscovery]++
			row := s.drawOneNear(sb, si, gammas[si])
			relevant := false
			if row >= 0 {
				var isNew bool
				relevant, isNew = s.labelRow(row, PhaseDiscovery, res)
				if isNew {
					budget--
				}
				if relevant {
					s.discoveryHits++
				}
			}
			if !relevant && cell.Level < d.maxLevel {
				// No relevant object from this cell: sub-areas may still
				// overlap a relevant area, so zoom in (Section 3).
				d.next = append(d.next, d.g.Children(cell)...)
			}
		}
		d.frontier = d.frontier[consumed:]
	}
}

// clusterNode is one sampling area of the clustering-based hierarchy.
type clusterNode struct {
	center   geom.Point
	radius   float64 // Chebyshev radius of the cluster
	children []int   // indexes into the next level's node list
	level    int
}

// clusterDiscovery implements the skew-aware optimization of Section 3.1:
// k-means over a database sample defines the sampling areas, so effort
// concentrates where the data is dense. Zooming descends to the
// finer-grained clusters nearest the unproductive centroid.
type clusterDiscovery struct {
	levels   [][]clusterNode
	frontier []*clusterNode
	next     []*clusterNode
}

func newClusterDiscovery(s *Session) (*clusterDiscovery, error) {
	// Fit the hierarchy on a sample of the data (clustering millions of
	// rows would destroy interactivity).
	sample := s.view.SampleAll(s.opts.ClusterSampleSize, s.rng)
	if s.opts.RangeHint != nil {
		var kept []int
		for _, row := range sample {
			if s.opts.RangeHint.Contains(s.view.NormPoint(row)) {
				kept = append(kept, row)
			}
		}
		sample = kept
	}
	if len(sample) == 0 {
		return nil, fmt.Errorf("explore: no rows available to fit clustering discovery")
	}
	points := make([]geom.Point, len(sample))
	for i, row := range sample {
		points[i] = s.view.NormPoint(row)
	}

	ks := s.opts.ClusterLevelK
	if len(ks) == 0 {
		// Default hierarchy: level 0 matches the grid's cell count, each
		// deeper level has 2^d times more clusters, capped so clusters
		// keep enough members to define meaningful radii (and so the
		// k-means fits stay cheap enough for an interactive session).
		d := s.view.Dims()
		k := 1
		for i := 0; i < d; i++ {
			k *= s.opts.Beta0
		}
		maxK := len(points) / 8
		if maxK < 1 {
			maxK = 1
		}
		for l := 0; l <= s.opts.MaxZoomLevels; l++ {
			kl := min(k<<(uint(l)*uint(d)), maxK)
			ks = append(ks, kl)
			if kl == maxK {
				break // deeper levels would be identical
			}
		}
	}

	levels, err := kmeans.ClusterLevels(s.iterCtx(), points, ks, kmeans.Params{MaxIters: 20}, s.rng)
	if err != nil {
		return nil, fmt.Errorf("explore: clustering levels %v: %w", ks, err)
	}
	cd := &clusterDiscovery{}
	for l, resK := range levels {
		radii := resK.Radii(points)
		nodes := make([]clusterNode, len(resK.Centroids))
		for c := range resK.Centroids {
			nodes[c] = clusterNode{
				center: resK.Centroids[c],
				radius: radii[c],
				level:  l,
			}
		}
		cd.levels = append(cd.levels, nodes)
	}
	// Wire children: a node's children are the next level's nodes whose
	// centroid is nearest to it.
	for l := 0; l+1 < len(cd.levels); l++ {
		parents := cd.levels[l]
		for ci := range cd.levels[l+1] {
			child := &cd.levels[l+1][ci]
			best, bestD := 0, math.Inf(1)
			for pi := range parents {
				if dd := parents[pi].center.Dist(child.center); dd < bestD {
					best, bestD = pi, dd
				}
			}
			parents[best].children = append(parents[best].children, ci)
		}
	}
	for i := range cd.levels[0] {
		cd.frontier = append(cd.frontier, &cd.levels[0][i])
	}
	s.rng.Shuffle(len(cd.frontier), func(i, j int) {
		cd.frontier[i], cd.frontier[j] = cd.frontier[j], cd.frontier[i]
	})
	return cd, nil
}

func (d *clusterDiscovery) exhausted() bool {
	return len(d.frontier) == 0 && len(d.next) == 0
}

func (d *clusterDiscovery) step(s *Session, budget int, res *IterationResult) {
	for budget > 0 {
		if s.stepHalted(res) {
			return // iteration abandoned; frontier state stays consistent
		}
		if len(d.frontier) == 0 {
			if len(d.next) == 0 {
				return
			}
			d.frontier, d.next = d.next, nil
			s.rng.Shuffle(len(d.frontier), func(i, j int) {
				d.frontier[i], d.frontier[j] = d.frontier[j], d.frontier[i]
			})
		}
		// Work a window of clusters per engine pass. "One object per
		// cluster within distance gamma < delta along each dimension from
		// the cluster's centroid, where delta is the radius of the
		// cluster" (Section 3.1) — every cluster's retrieval query goes
		// into one batch, rows drawn lazily in cluster order.
		w := 2*budget + 8
		if w > len(d.frontier) {
			w = len(d.frontier)
		}
		window := d.frontier[:w]
		full := geom.NewRect(s.view.Dims())
		queries := make([]engine.BatchQuery, w)
		gammas := make([]float64, w)
		for i, node := range window {
			gamma := s.opts.GammaFrac * node.radius
			if gamma <= 0 {
				gamma = 0.5 // degenerate single-point cluster
			}
			gammas[i] = gamma
			queries[i] = engine.BatchQuery{
				Kind: engine.BatchSample,
				N:    1,
				Rect: geom.RectAround(node.center, gamma, full),
			}
		}
		br := s.view.ExecuteBatch(queries)
		consumed := 0
		for i, node := range window {
			if budget <= 0 || s.stepHalted(res) {
				break
			}
			consumed = i + 1
			s.stats.PhaseQueries[PhaseDiscovery]++
			row := s.drawOneNear(br, i, gammas[i])
			relevant := false
			if row >= 0 {
				var isNew bool
				relevant, isNew = s.labelRow(row, PhaseDiscovery, res)
				if isNew {
					budget--
				}
				if relevant {
					s.discoveryHits++
				}
			}
			if !relevant && node.level+1 < len(d.levels) {
				for _, ci := range node.children {
					d.next = append(d.next, &d.levels[node.level+1][ci])
				}
			}
		}
		d.frontier = d.frontier[consumed:]
	}
}

// hybridDiscovery explores dense areas first via clustering, then falls
// back to the grid so sparse regions are still covered — the hybrid
// strategy Section 6.4 concludes would be best.
type hybridDiscovery struct {
	cluster  *clusterDiscovery
	grid     *gridDiscovery
	session  *Session
	switched bool
}

func (d *hybridDiscovery) exhausted() bool {
	if !d.switched {
		return false // grid phase still pending
	}
	return d.grid.exhausted()
}

func (d *hybridDiscovery) step(s *Session, budget int, res *IterationResult) {
	if !d.switched {
		before := res.PhaseSamples[PhaseDiscovery]
		d.cluster.step(s, budget, res)
		budget -= res.PhaseSamples[PhaseDiscovery] - before
		if !d.cluster.exhausted() || budget <= 0 {
			return
		}
		g, err := newGridDiscovery(s)
		if err != nil {
			return // clustering already covered what it could
		}
		d.grid = g
		d.switched = true
	}
	d.grid.step(s, budget, res)
}
