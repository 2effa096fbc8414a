package cart

import (
	"context"

	"github.com/explore-by-example/aide/internal/geom"
)

// TrainWeighted fits a tree with a per-sample weight on every training
// point: split search maximizes weighted Gini gain and leaf predictions
// use the weighted majority vote, so down-weighted samples (e.g. rows the
// user labeled contradictorily) pull less on the model without being
// dropped. Weights must be finite and positive; MinLeaf still counts
// samples, not weight mass.
//
// A nil weights slice delegates to Train — the unweighted
// integer-arithmetic path — so callers that only sometimes have weights
// keep bit-identical unweighted behavior.
func TrainWeighted(points []geom.Point, labels []bool, weights []float64, params Params) (*Tree, error) {
	return TrainWeightedCtx(context.Background(), points, labels, weights, params)
}

// TrainWeightedCtx is TrainWeighted with cooperative cancellation,
// mirroring TrainCtx.
func TrainWeightedCtx(ctx context.Context, points []geom.Point, labels []bool, weights []float64, params Params) (*Tree, error) {
	return new(Set).Train(ctx, points, labels, weights, params)
}

// sweepWeighted scans one dimension's presorted segment for the midpoint
// threshold with maximal weighted Gini gain. Weight sums accumulate in
// segment order — ascending value, ties by ascending row index — so the
// result is deterministic at every worker count.
func sweepWeighted(seg []entry, labels []bool, weights []float64, parent, wPos, wTot float64) splitResult {
	n := len(seg)
	var best splitResult
	var leftWPos, leftW float64
	for k := 0; k < n-1; k++ {
		i := seg[k].row
		leftW += weights[i]
		if labels[i] {
			leftWPos += weights[i]
		}
		v, next := seg[k].key, seg[k+1].key
		if v == next {
			continue // can only split between distinct values
		}
		rightW := wTot - leftW
		rightWPos := wPos - leftWPos
		frac := leftW / wTot
		g := parent - frac*giniW(leftWPos, leftW) - (1-frac)*giniW(rightWPos, rightW)
		if g > best.gain+1e-15 {
			best = splitResult{gain: g, thr: (v + next) / 2, ok: true}
		}
	}
	return best
}

// giniW is Gini impurity over weight mass.
func giniW(pos, tot float64) float64 {
	if tot <= 0 {
		return 0
	}
	p := pos / tot
	return 2 * p * (1 - p)
}
