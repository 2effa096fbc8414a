// Package cart implements the CART decision-tree classifier (Breiman et
// al. 1984) that AIDE uses as its user-interest model (Section 2.2 of the
// paper). The tree is binary, splits numeric attributes on midpoint
// thresholds chosen by Gini impurity reduction, and — crucially for AIDE —
// is a white-box model: its decision conditions translate directly into
// hyper-rectangles that characterize the relevant and irrelevant areas of
// the exploration space, and from there into boolean query predicates.
//
// All training points are expected in AIDE's normalized [0,100] space,
// though nothing in the algorithm depends on that.
package cart

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/par"
)

// ErrBadParams marks Params rejected by Validate.
var ErrBadParams = errors.New("cart: invalid params")

// kernelSplit tracks the parallel per-dimension Gini sweeps of bestSplit.
var kernelSplit = par.NewKernel("cart.best_split")

// Params controls tree induction.
type Params struct {
	// MaxDepth bounds tree depth; 0 means unbounded.
	MaxDepth int
	// MinLeaf is the minimum number of samples each side of a split must
	// retain; splits violating it are rejected. Minimum 1.
	MinLeaf int
	// MinGain is the minimum Gini impurity decrease a split must achieve.
	MinGain float64
	// Workers sets the worker count for the per-dimension split search:
	// 0 means automatic (AIDE_WORKERS or GOMAXPROCS), 1 forces the
	// sequential path. The trained tree is bit-identical at every worker
	// count: each dimension's sweep is independent and the cross-dimension
	// merge keeps the lower-dim/lower-threshold tie-break.
	Workers int
	// MaxNodes caps the total node count (a resource budget: each split
	// adds two nodes). 0 means unbounded. When the cap stops a split, the
	// affected subtree becomes a majority-vote leaf and the tree reports
	// Capped() — a deterministic truncation of the unbounded tree.
	MaxNodes int
}

// Validate rejects negative or non-finite parameter values with a typed
// error (errors.Is(err, ErrBadParams)). Zero values are allowed: they
// mean "default" (MinLeaf 1, unbounded depth/nodes, automatic workers).
func (p Params) Validate() error {
	if p.MaxDepth < 0 {
		return fmt.Errorf("%w: MaxDepth = %d", ErrBadParams, p.MaxDepth)
	}
	if p.MinLeaf < 0 {
		return fmt.Errorf("%w: MinLeaf = %d", ErrBadParams, p.MinLeaf)
	}
	if p.MinGain < 0 || math.IsNaN(p.MinGain) || math.IsInf(p.MinGain, 0) {
		return fmt.Errorf("%w: MinGain = %v", ErrBadParams, p.MinGain)
	}
	if p.Workers < 0 {
		return fmt.Errorf("%w: Workers = %d", ErrBadParams, p.Workers)
	}
	if p.MaxNodes < 0 {
		return fmt.Errorf("%w: MaxNodes = %d", ErrBadParams, p.MaxNodes)
	}
	return nil
}

// DefaultParams returns the parameters used by AIDE. MinLeaf is 3 rather
// than 1: a lone relevant sample must NOT get a pure leaf of its own,
// because AIDE's misclassified-exploitation phase is driven by exactly
// those training-set false negatives ("there are no sufficient samples
// within that area to allow the classifier to characterize this area as
// relevant", Section 4.1). A fully grown tree would have zero training
// error and the phase would never fire.
func DefaultParams() Params {
	return Params{MaxDepth: 0, MinLeaf: 3, MinGain: 1e-9}
}

// node is one tree node. Leaves have dim == -1.
type node struct {
	dim      int     // split dimension, -1 for leaf
	thr      float64 // split threshold: left if x[dim] <= thr
	left     *node
	right    *node
	relevant bool // leaf prediction
	n        int  // training samples reaching the node
	nPos     int  // relevant training samples reaching the node
}

// Tree is a trained CART classifier.
type Tree struct {
	root   *node
	dims   int
	nodes  int  // total node count
	capped bool // true when the MaxNodes budget stopped a split
}

// Train fits a tree to the given points and labels. It returns an error
// when the inputs are empty or ragged. It is a one-shot Set.Train: a
// caller that retrains on a growing training set keeps a Set instead.
func Train(points []geom.Point, labels []bool, params Params) (*Tree, error) {
	return TrainCtx(context.Background(), points, labels, params)
}

// TrainCtx is Train with cooperative cancellation: induction checks ctx
// at every node boundary and returns ctx.Err() once cancelled, dropping
// the partial tree. An uncancelled ctx yields a tree bit-identical to
// Train's.
func TrainCtx(ctx context.Context, points []geom.Point, labels []bool, params Params) (*Tree, error) {
	return new(Set).Train(ctx, points, labels, nil, params)
}

// splitResult is one dimension's best split candidate.
type splitResult struct {
	gain float64
	thr  float64
	ok   bool
}

// sweep scans one dimension's presorted segment for its best midpoint
// threshold, evaluating only between distinct values.
func sweep(seg []entry, labels []bool, parent float64, nPos int) splitResult {
	n := len(seg)
	var best splitResult
	leftPos, leftN := 0, 0
	for k := 0; k < n-1; k++ {
		leftN++
		if labels[seg[k].row] {
			leftPos++
		}
		v, next := seg[k].key, seg[k+1].key
		if v == next {
			continue // can only split between distinct values
		}
		rightN := n - leftN
		rightPos := nPos - leftPos
		w := float64(leftN) / float64(n)
		g := parent - w*gini(leftPos, leftN) - (1-w)*gini(rightPos, rightN)
		if g > best.gain+1e-15 {
			best = splitResult{gain: g, thr: (v + next) / 2, ok: true}
		}
	}
	return best
}

// gini returns the Gini impurity of a node with pos positives out of n.
func gini(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}

// Dims returns the dimensionality the tree was trained on.
func (t *Tree) Dims() int { return t.dims }

// NumNodes returns the total node count of the tree.
func (t *Tree) NumNodes() int { return t.nodes }

// Capped reports whether the MaxNodes budget stopped at least one split
// during induction.
func (t *Tree) Capped() bool { return t.capped }

// Predict classifies a point as relevant (true) or irrelevant (false).
func (t *Tree) Predict(p geom.Point) bool {
	nd := t.root
	for nd.dim >= 0 {
		if p[nd.dim] <= nd.thr {
			nd = nd.left
		} else {
			nd = nd.right
		}
	}
	return nd.relevant
}

// Depth returns the tree depth (a lone leaf has depth 0).
func (t *Tree) Depth() int { return depth(t.root) }

func depth(nd *node) int {
	if nd.dim < 0 {
		return 0
	}
	l, r := depth(nd.left), depth(nd.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// NumLeaves returns the number of leaves.
func (t *Tree) NumLeaves() int { return leaves(t.root) }

func leaves(nd *node) int {
	if nd.dim < 0 {
		return 1
	}
	return leaves(nd.left) + leaves(nd.right)
}

// RelevantAreas returns the hyper-rectangles (within bounds) whose points
// the tree classifies as relevant: one rect per relevant leaf, clipped to
// bounds. This is the P^r predicate set of Section 2.3, the source of
// AIDE's final query and the areas the boundary-exploitation phase
// refines.
func (t *Tree) RelevantAreas(bounds geom.Rect) []geom.Rect {
	if len(bounds) != t.dims {
		panic(fmt.Sprintf("cart: bounds have %d dims, tree has %d", len(bounds), t.dims))
	}
	var out []geom.Rect
	collectAreas(t.root, bounds.Clone(), true, &out)
	return out
}

// IrrelevantAreas returns the rectangles classified irrelevant (the P^nr
// set).
func (t *Tree) IrrelevantAreas(bounds geom.Rect) []geom.Rect {
	if len(bounds) != t.dims {
		panic(fmt.Sprintf("cart: bounds have %d dims, tree has %d", len(bounds), t.dims))
	}
	var out []geom.Rect
	collectAreas(t.root, bounds.Clone(), false, &out)
	return out
}

func collectAreas(nd *node, rect geom.Rect, wantRelevant bool, out *[]geom.Rect) {
	if nd.dim < 0 {
		if nd.relevant == wantRelevant && !rect.IsEmpty() {
			*out = append(*out, rect.Clone())
		}
		return
	}
	left := rect.Clone()
	if nd.thr < left[nd.dim].Hi {
		left[nd.dim].Hi = nd.thr
	}
	collectAreas(nd.left, left, wantRelevant, out)
	right := rect.Clone()
	if nd.thr > right[nd.dim].Lo {
		right[nd.dim].Lo = nd.thr
	}
	collectAreas(nd.right, right, wantRelevant, out)
}

// SplitDims returns the set of dimensions the tree actually splits on.
// AIDE uses this to detect attributes the model considers relevant;
// dimensions absent from the set are candidates for elimination from the
// final query (Section 5.2, "identifying irrelevant attributes").
func (t *Tree) SplitDims() map[int]bool {
	out := make(map[int]bool)
	var walk func(*node)
	walk = func(nd *node) {
		if nd.dim < 0 {
			return
		}
		out[nd.dim] = true
		walk(nd.left)
		walk(nd.right)
	}
	walk(t.root)
	return out
}

// String renders the tree in an indented, human-readable form, with
// attribute names when provided (pass nil to use x0..x(d-1)).
func (t *Tree) String(attrs []string) string {
	name := func(d int) string {
		if d < len(attrs) {
			return attrs[d]
		}
		return fmt.Sprintf("x%d", d)
	}
	var b strings.Builder
	var walk func(nd *node, indent string)
	walk = func(nd *node, indent string) {
		if nd.dim < 0 {
			label := "irrelevant"
			if nd.relevant {
				label = "relevant"
			}
			fmt.Fprintf(&b, "%s%s (%d/%d)\n", indent, label, nd.nPos, nd.n)
			return
		}
		fmt.Fprintf(&b, "%s%s <= %.4g\n", indent, name(nd.dim), nd.thr)
		walk(nd.left, indent+"  ")
		fmt.Fprintf(&b, "%s%s > %.4g\n", indent, name(nd.dim), nd.thr)
		walk(nd.right, indent+"  ")
	}
	walk(t.root, "")
	return b.String()
}

// MergeAreas coalesces rectangles that tile a larger rectangle: two rects
// merge when they agree on every dimension but one and are adjacent (or
// overlapping) in that one. The decision tree often fragments a single
// relevant region into several leaves; merging produces the compact
// disjuncts users see in the final query. The operation preserves the
// union of the rectangles exactly.
func MergeAreas(rects []geom.Rect) []geom.Rect {
	out := make([]geom.Rect, len(rects))
	for i, r := range rects {
		out[i] = r.Clone()
	}
	merged := true
	for merged {
		merged = false
	outer:
		for i := 0; i < len(out); i++ {
			for j := i + 1; j < len(out); j++ {
				if m, ok := tryMerge(out[i], out[j]); ok {
					out[i] = m
					out = append(out[:j], out[j+1:]...)
					merged = true
					break outer
				}
			}
		}
	}
	return out
}

// tryMerge merges two rects when their union is exactly a rect.
func tryMerge(a, b geom.Rect) (geom.Rect, bool) {
	if len(a) != len(b) {
		return nil, false
	}
	diff := -1
	for d := range a {
		if a[d] == b[d] {
			continue
		}
		if diff >= 0 {
			return nil, false // differ in more than one dimension
		}
		diff = d
	}
	if diff < 0 {
		return a.Clone(), true // identical
	}
	// Adjacent or overlapping along diff?
	if a[diff].Lo > b[diff].Lo {
		a, b = b, a
	}
	if b[diff].Lo > a[diff].Hi {
		return nil, false // gap
	}
	m := a.Clone()
	if b[diff].Hi > m[diff].Hi {
		m[diff].Hi = b[diff].Hi
	}
	return m, true
}
