package cart

import (
	"fmt"
	"math"
	"slices"

	"github.com/explore-by-example/aide/internal/geom"
)

// referenceTrain is the induction Set replaced, kept as the test
// reference: every node re-sorts its samples on every dimension and
// sweeps the sorted keys. With tieBreak false it sorts exactly as before
// (an unstable sort on value alone); with tieBreak true equal values
// order by ascending index, the order a Set keeps. The unweighted tree
// cannot depend on the order of equal keys, because the sweep only
// splits between distinct values; the weighted sweep sums float weights
// in key order, so on inputs with ties it matches a Set only with
// tieBreak.
func referenceTrain(points []geom.Point, labels []bool, weights []float64, params Params, tieBreak bool) (*Tree, error) {
	if len(points) == 0 || len(points) != len(labels) || len(points[0]) == 0 {
		return nil, fmt.Errorf("reference: bad input")
	}
	if params.MinLeaf < 1 {
		params.MinLeaf = 1
	}
	d := len(points[0])
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	r := &refBuilder{
		tree:     &Tree{dims: d, nodes: 1},
		params:   params,
		weights:  weights,
		tieBreak: tieBreak,
		dimBest:  make([]splitResult, d),
	}
	r.tree.root = r.build(points, labels, idx, 0)
	return r.tree, nil
}

// refBuilder is one reference induction's state.
type refBuilder struct {
	tree     *Tree
	params   Params
	weights  []float64
	tieBreak bool
	buf      []keyedIndex
	dimBest  []splitResult
	part     []int
}

func (r *refBuilder) build(points []geom.Point, labels []bool, idx []int, depth int) *node {
	t := r.tree
	n := len(idx)
	nPos := 0
	for _, i := range idx {
		if labels[i] {
			nPos++
		}
	}
	nd := &node{dim: -1, n: n, nPos: nPos, relevant: nPos*2 > n}
	if r.weights != nil {
		var wPos, wTot float64
		for _, i := range idx {
			w := r.weights[i]
			wTot += w
			if labels[i] {
				wPos += w
			}
		}
		nd.relevant = wPos*2 > wTot
	}
	if nPos == 0 || nPos == n {
		return nd
	}
	if r.params.MaxDepth > 0 && depth >= r.params.MaxDepth {
		return nd
	}
	if r.params.MaxNodes > 0 && t.nodes+2 > r.params.MaxNodes {
		t.capped = true
		return nd
	}
	dim, thr, gain := r.bestSplit(points, labels, idx)
	if dim < 0 || gain < r.params.MinGain {
		return nd
	}
	k := 0
	r.part = r.part[:0]
	for _, i := range idx {
		if points[i][dim] <= thr {
			idx[k] = i
			k++
		} else {
			r.part = append(r.part, i)
		}
	}
	copy(idx[k:], r.part)
	left, right := idx[:k], idx[k:]
	if len(left) < r.params.MinLeaf || len(right) < r.params.MinLeaf {
		return nd
	}
	nd.dim = dim
	nd.thr = thr
	t.nodes += 2
	nd.left = r.build(points, labels, left, depth+1)
	nd.right = r.build(points, labels, right, depth+1)
	return nd
}

func (r *refBuilder) bestSplit(points []geom.Point, labels []bool, idx []int) (bestDim int, bestThr, bestGain float64) {
	n := len(idx)
	nPos := 0
	var wPos, wTot float64
	for _, i := range idx {
		if labels[i] {
			nPos++
		}
		if r.weights != nil {
			w := r.weights[i]
			wTot += w
			if labels[i] {
				wPos += w
			}
		}
	}
	for d := range r.dimBest {
		keyed := r.sortKeyed(points, idx, d)
		if r.weights == nil {
			r.dimBest[d] = refSweep(keyed, labels, gini(nPos, n), nPos)
		} else {
			r.dimBest[d] = refSweepWeighted(keyed, labels, r.weights, giniW(wPos, wTot), wPos, wTot)
		}
	}
	bestDim = -1
	for d, res := range r.dimBest {
		if res.ok && res.gain > bestGain+1e-15 {
			bestDim, bestThr, bestGain = d, res.thr, res.gain
		}
	}
	return bestDim, bestThr, bestGain
}

func refSweep(keyed []keyedIndex, labels []bool, parent float64, nPos int) splitResult {
	n := len(keyed)
	var best splitResult
	leftPos, leftN := 0, 0
	for k := 0; k < n-1; k++ {
		leftN++
		if labels[keyed[k].idx] {
			leftPos++
		}
		v, next := keyed[k].key, keyed[k+1].key
		if v == next {
			continue
		}
		w := float64(leftN) / float64(n)
		g := parent - w*gini(leftPos, leftN) - (1-w)*gini(nPos-leftPos, n-leftN)
		if g > best.gain+1e-15 {
			best = splitResult{gain: g, thr: (v + next) / 2, ok: true}
		}
	}
	return best
}

func refSweepWeighted(keyed []keyedIndex, labels []bool, weights []float64, parent, wPos, wTot float64) splitResult {
	n := len(keyed)
	var best splitResult
	var leftWPos, leftW float64
	for k := 0; k < n-1; k++ {
		i := keyed[k].idx
		leftW += weights[i]
		if labels[i] {
			leftWPos += weights[i]
		}
		v, next := keyed[k].key, keyed[k+1].key
		if v == next {
			continue
		}
		frac := leftW / wTot
		g := parent - frac*giniW(leftWPos, leftW) - (1-frac)*giniW(wPos-leftWPos, wTot-leftW)
		if g > best.gain+1e-15 {
			best = splitResult{gain: g, thr: (v + next) / 2, ok: true}
		}
	}
	return best
}

// keyedIndex pairs a sample index with its value on the dimension being
// scanned.
type keyedIndex struct {
	key float64
	idx int
}

// sortKeyed fills the scratch buffer with (value, index) pairs for idx on
// dimension d and sorts them ascending by value.
func (r *refBuilder) sortKeyed(points []geom.Point, idx []int, d int) []keyedIndex {
	keyed := r.buf[:0]
	for _, i := range idx {
		keyed = append(keyed, keyedIndex{key: points[i][d], idx: i})
	}
	r.buf = keyed
	slices.SortFunc(keyed, func(a, b keyedIndex) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		case r.tieBreak:
			return a.idx - b.idx
		default:
			return 0
		}
	})
	return keyed
}

// treeDiff describes the first difference between two trees node for
// node — split dimension, threshold bits, prediction and the sample
// counts — or returns "" when they are identical.
func treeDiff(a, b *Tree) string {
	if a.dims != b.dims || a.nodes != b.nodes || a.capped != b.capped {
		return fmt.Sprintf("dims/nodes/capped %d/%d/%v vs %d/%d/%v", a.dims, a.nodes, a.capped, b.dims, b.nodes, b.capped)
	}
	return nodeDiff(a.root, b.root, "root")
}

func nodeDiff(a, b *node, path string) string {
	if a.dim != b.dim || math.Float64bits(a.thr) != math.Float64bits(b.thr) ||
		a.relevant != b.relevant || a.n != b.n || a.nPos != b.nPos {
		return fmt.Sprintf("%s: dim %d thr %v relevant %v n %d/%d vs dim %d thr %v relevant %v n %d/%d",
			path, a.dim, a.thr, a.relevant, a.nPos, a.n, b.dim, b.thr, b.relevant, b.nPos, b.n)
	}
	if a.dim < 0 {
		return ""
	}
	if d := nodeDiff(a.left, b.left, path+".L"); d != "" {
		return d
	}
	return nodeDiff(a.right, b.right, path+".R")
}
