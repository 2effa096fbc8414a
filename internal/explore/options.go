// Package explore implements AIDE's automatic query steering framework —
// the paper's core contribution. A Session drives the iterative
// explore-by-example loop of Figure 1: it strategically extracts sample
// tuples, obtains relevance labels from an Oracle (a human or a simulated
// user), trains a CART classifier over the labeled set, and converges to
// a predicted query selecting the user's relevant areas.
//
// Sample selection combines the paper's three phases:
//
//   - relevant object discovery over a hierarchical grid or k-means
//     cluster hierarchy (Section 3),
//   - misclassified (false-negative) exploitation, per-object or
//     cluster-grouped (Section 4), and
//   - boundary exploitation of the predicted relevant areas with adaptive
//     sample sizing, non-overlapping sampling areas and whole-domain
//     sampling of non-boundary attributes (Section 5).
package explore

import (
	"fmt"

	"github.com/explore-by-example/aide/internal/cart"
	"github.com/explore-by-example/aide/internal/geom"
)

// DiscoveryStrategy selects how the relevant-object-discovery phase picks
// sampling areas.
type DiscoveryStrategy int

const (
	// DiscoveryGrid explores a hierarchical equal-width grid (the
	// skew-agnostic default of Section 3).
	DiscoveryGrid DiscoveryStrategy = iota
	// DiscoveryClustering samples around k-means centroids, concentrating
	// effort in dense regions (the skew-aware optimization of
	// Section 3.1).
	DiscoveryClustering
	// DiscoveryHybrid starts with clustering and falls back to the grid
	// once the cluster hierarchy is exhausted or user interests appear to
	// lie in sparse regions (the hybrid strategy discussed in
	// Section 6.4).
	DiscoveryHybrid
)

// String implements fmt.Stringer.
func (d DiscoveryStrategy) String() string {
	switch d {
	case DiscoveryGrid:
		return "grid"
	case DiscoveryClustering:
		return "clustering"
	case DiscoveryHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("DiscoveryStrategy(%d)", int(d))
	}
}

// MisclassStrategy selects how false negatives are exploited.
type MisclassStrategy int

const (
	// MisclassClustered groups false negatives with k-means and issues
	// one sample-extraction query per cluster when that reduces query
	// count (the paper's optimization, Section 4.2). It automatically
	// degrades to per-object sampling when clustering would not help.
	MisclassClustered MisclassStrategy = iota
	// MisclassPerObject always samples around each false negative
	// independently (the baseline the optimization is compared against
	// in Figure 10(e)).
	MisclassPerObject
)

// String implements fmt.Stringer.
func (m MisclassStrategy) String() string {
	switch m {
	case MisclassClustered:
		return "clustered"
	case MisclassPerObject:
		return "per-object"
	default:
		return fmt.Sprintf("MisclassStrategy(%d)", int(m))
	}
}

// Options configures a Session. The zero value is not usable; start from
// DefaultOptions.
type Options struct {
	// Seed drives every random choice in the session; equal seeds give
	// identical sessions.
	Seed int64

	// SamplesPerIteration caps the new labels requested from the user
	// each iteration (the paper's evaluation protocol uses 20). Zero
	// means phase-driven: every phase takes what it wants.
	SamplesPerIteration int

	// Beta0 is the cells-per-dimension of exploration level 0
	// (the paper's beta).
	Beta0 int
	// MaxZoomLevels bounds how many levels below 0 discovery may zoom.
	MaxZoomLevels int
	// GammaFrac is the per-cell sampling radius as a fraction of half the
	// cell width: gamma = GammaFrac * delta/2, honoring gamma < delta/2.
	GammaFrac float64
	// SparseGammaFrac replaces GammaFrac for cells whose density is below
	// SparseDensityFrac of the level average ("sparse cells should use a
	// higher gamma value than dense ones", Section 3).
	SparseGammaFrac float64
	// SparseDensityFrac defines sparseness relative to the average cell
	// density at the current level.
	SparseDensityFrac float64

	// Discovery picks the discovery strategy.
	Discovery DiscoveryStrategy
	// ClusterLevelK lists the k (cluster count) of each clustering
	// exploration level, highest (coarsest) level first. Only used by
	// DiscoveryClustering and DiscoveryHybrid. When empty, levels are
	// derived from Beta0 and the dimensionality.
	ClusterLevelK []int
	// ClusterSampleSize is how many rows are sampled to fit the k-means
	// levels (clustering the full table would defeat interactivity).
	ClusterSampleSize int

	// Misclass picks the false-negative exploitation strategy.
	Misclass MisclassStrategy
	// F is the number of samples collected around each false negative
	// (or per cluster member): the paper's f, recommended 10-25.
	F int
	// Y is the normalized Chebyshev radius of misclassified sampling
	// areas: the paper's y.
	Y float64

	// AlphaMax caps the boundary-exploitation samples per iteration: the
	// paper's alpha_max.
	AlphaMax int
	// BoundaryX is the half-width of boundary sampling slabs: the
	// paper's x (a conservative 1 normalized unit by default).
	BoundaryX float64
	// AdaptiveBoundary scales each face's sample budget by how much the
	// boundary moved since the last iteration (Section 5.2, "adaptive
	// sample size").
	AdaptiveBoundary bool
	// BoundaryErr is the error floor er: samples still collected from
	// unmodified boundaries.
	BoundaryErr int
	// NonOverlapSampling skips slabs that heavily overlap the previous
	// iteration's slab for an unmoved boundary (Section 5.2,
	// "non-overlapping sampling areas").
	NonOverlapSampling bool
	// OverlapSkipFrac is the overlap fraction above which such a slab is
	// skipped.
	OverlapSkipFrac float64
	// DomainSampling samples non-boundary dimensions over their whole
	// domain, letting the tree drop attributes irrelevant to the user
	// (Section 5.2, "identifying irrelevant attributes").
	DomainSampling bool

	// DisableMisclass turns the misclassified-exploitation phase off
	// (ablation support, Figure 8(f)).
	DisableMisclass bool
	// DisableBoundary turns the boundary-exploitation phase off
	// (ablation support, Figure 8(f)).
	DisableBoundary bool

	// DistanceHint, when positive, promises that every relevant area is
	// at least this wide (normalized units) in every constrained
	// dimension; discovery starts directly at the exploration level whose
	// cell width is at most the hint (Section 3.1).
	DistanceHint float64
	// RangeHint, when non-nil, restricts exploration to this normalized
	// region (Section 3.1's range-based hint).
	RangeHint geom.Rect

	// Tree configures the CART classifier.
	Tree cart.Params

	// MaxIterations bounds RunUntil loops.
	MaxIterations int

	// ConflictPolicy selects how contradictory labels for the same row are
	// resolved (default ConflictLastWins).
	ConflictPolicy ConflictPolicy

	// Budget caps the session's resource consumption; exceeding a cap
	// degrades the iteration deterministically instead of failing it. The
	// zero value is unlimited.
	Budget Budget

	// CacheBytes, when positive, attaches a session-private predicate
	// result cache of roughly this many bytes to the view (memoizing
	// Count/RowsIn; see engine.Cache) — unless the view already carries a
	// shared cache, which then wins so cross-session reuse is preserved.
	// Cached sessions are bit-identical to uncached ones; the knob trades
	// memory for repeated-scan latency only. Zero disables; negative is
	// rejected.
	CacheBytes int64
}

// DefaultOptions returns the configuration matching the paper's
// evaluation setup (Section 6.2): 20 samples per iteration, beta=4 grid,
// f=10, y=3, x=1, all optimizations enabled. AlphaMax (the paper leaves
// its value unspecified) is 40: with the adaptive budget on, actual
// boundary demand stays near the error floor, and the headroom is what
// makes the fixed-vs-adaptive contrast of Figure 10(f) meaningful.
func DefaultOptions() Options {
	return Options{
		Seed:                1,
		SamplesPerIteration: 20,
		Beta0:               4,
		MaxZoomLevels:       4,
		GammaFrac:           0.7,
		SparseGammaFrac:     0.98,
		SparseDensityFrac:   0.3,
		Discovery:           DiscoveryGrid,
		ClusterSampleSize:   2000,
		Misclass:            MisclassClustered,
		F:                   10,
		Y:                   3,
		AlphaMax:            40,
		BoundaryX:           1,
		AdaptiveBoundary:    true,
		BoundaryErr:         2,
		NonOverlapSampling:  true,
		OverlapSkipFrac:     0.9,
		DomainSampling:      true,
		Tree:                cart.DefaultParams(),
		MaxIterations:       200,
	}
}

// validate fills defaults for zero fields and rejects nonsensical values.
func (o *Options) validate(dims int) error {
	if o.Beta0 <= 0 {
		o.Beta0 = 4
	}
	if o.MaxZoomLevels < 0 {
		return fmt.Errorf("explore: MaxZoomLevels = %d", o.MaxZoomLevels)
	}
	if o.GammaFrac <= 0 || o.GammaFrac >= 1 {
		o.GammaFrac = 0.7
	}
	if o.SparseGammaFrac <= 0 || o.SparseGammaFrac >= 1 {
		o.SparseGammaFrac = 0.98
	}
	if o.SparseDensityFrac <= 0 {
		o.SparseDensityFrac = 0.3
	}
	if o.ClusterSampleSize <= 0 {
		o.ClusterSampleSize = 2000
	}
	if o.F <= 0 {
		o.F = 10
	}
	if o.Y <= 0 {
		o.Y = 3
	}
	if o.AlphaMax <= 0 {
		o.AlphaMax = 10
	}
	if o.BoundaryX <= 0 {
		o.BoundaryX = 1
	}
	if o.BoundaryErr < 0 {
		o.BoundaryErr = 1
	}
	if o.OverlapSkipFrac <= 0 || o.OverlapSkipFrac > 1 {
		o.OverlapSkipFrac = 0.9
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 200
	}
	if o.CacheBytes < 0 {
		return fmt.Errorf("explore: CacheBytes = %d", o.CacheBytes)
	}
	if o.ConflictPolicy < 0 || o.ConflictPolicy >= numConflictPolicies {
		return fmt.Errorf("explore: ConflictPolicy = %d", int(o.ConflictPolicy))
	}
	if err := o.Budget.validate(); err != nil {
		return err
	}
	if o.Budget.MaxTreeNodes > 0 &&
		(o.Tree.MaxNodes == 0 || o.Tree.MaxNodes > o.Budget.MaxTreeNodes) {
		o.Tree.MaxNodes = o.Budget.MaxTreeNodes
	}
	if err := o.Tree.Validate(); err != nil {
		return err
	}
	if o.SamplesPerIteration < 0 {
		return fmt.Errorf("explore: SamplesPerIteration = %d", o.SamplesPerIteration)
	}
	if o.RangeHint != nil && o.RangeHint.Dims() != dims {
		return fmt.Errorf("explore: RangeHint has %d dims, exploration space has %d", o.RangeHint.Dims(), dims)
	}
	if o.DistanceHint < 0 {
		return fmt.Errorf("explore: DistanceHint = %v", o.DistanceHint)
	}
	return nil
}
