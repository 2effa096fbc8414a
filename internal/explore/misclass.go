package explore

import (
	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/kmeans"
)

// planMisclass builds the sampling requests of the misclassified
// exploitation phase (Section 4). False negatives — objects the user
// labeled relevant but the current tree classifies irrelevant — mark
// relevant areas the model has not yet carved out; sampling around them
// feeds the classifier enough relevant tuples to predict the area.
//
// With MisclassClustered, false negatives are first grouped with k-means
// into k clusters, where k is the number of relevant objects found by the
// discovery phase (the paper's indicator for how many relevant areas were
// already "hit"); one sample-extraction query then serves each cluster.
// Clustering only runs when it reduces the number of extraction queries
// (k < #false negatives), exactly as Section 4.2 specifies.
func (s *Session) planMisclass(res *IterationResult) []sampleRequest {
	fns := s.falseNegatives()
	if len(fns) == 0 {
		return nil
	}
	k := s.discoveryHits
	if cap := s.opts.Budget.MaxSamplesPerIteration; cap > 0 {
		// Budgeted sessions bound the cluster count so the plan — and its
		// per-cluster extraction queries — stays proportionate to the
		// sample cap (each cluster asks for F samples per member).
		maxK := cap / s.opts.F
		if maxK < 1 {
			maxK = 1
		}
		if k > maxK {
			k = maxK
			s.degrade(res, DegradeMisclassClusterCap)
		}
	}
	if s.opts.Misclass == MisclassClustered && k > 0 && k < len(fns) {
		if reqs := s.planMisclassClustered(fns, k); reqs != nil {
			return reqs
		}
	}
	// Per-object sampling: f random samples within normalized distance y
	// on each dimension from every false negative (Figure 4).
	reqs := make([]sampleRequest, 0, len(fns))
	for _, fn := range fns {
		reqs = append(reqs, sampleRequest{
			rect:  geom.RectAround(fn, s.opts.Y, s.bounds),
			n:     s.opts.F,
			phase: PhaseMisclass,
		})
	}
	return reqs
}

// planMisclassClustered issues one request per false-negative cluster:
// f x c samples within a distance y of the farthest cluster member in
// each dimension, where c is the cluster size (Figure 5).
func (s *Session) planMisclassClustered(fns []geom.Point, k int) []sampleRequest {
	res, err := kmeans.ClusterCtx(s.iterCtx(), fns, kmeans.Params{K: k}, s.rng)
	if err != nil {
		return nil
	}
	reqs := make([]sampleRequest, 0, len(res.Centroids))
	for c := range res.Centroids {
		if res.Sizes[c] == 0 {
			continue
		}
		rect, ok := res.BoundingRect(fns, c, s.opts.Y, s.bounds)
		if !ok {
			continue
		}
		reqs = append(reqs, sampleRequest{
			rect:  rect,
			n:     s.opts.F * res.Sizes[c],
			phase: PhaseMisclass,
		})
	}
	return reqs
}

// falseNegatives returns the normalized points of labeled-relevant
// samples the current tree classifies as irrelevant. (False positives
// are rare under CART's homogeneity-driven splits and are handled by
// boundary exploitation instead; see Section 4.1.)
func (s *Session) falseNegatives() []geom.Point {
	var out []geom.Point
	for i := range s.rows {
		if s.labels[i] && !s.tree.Predict(s.points[i]) {
			out = append(out, s.points[i])
		}
	}
	return out
}

// falsePositives returns labeled-irrelevant samples the tree classifies
// relevant (exported within the package for diagnostics and tests).
func (s *Session) falsePositives() []geom.Point {
	var out []geom.Point
	for i := range s.rows {
		if !s.labels[i] && s.tree.Predict(s.points[i]) {
			out = append(out, s.points[i])
		}
	}
	return out
}
