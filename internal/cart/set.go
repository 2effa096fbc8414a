package cart

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/obs"
	"github.com/explore-by-example/aide/internal/par"
)

// obsKeysSorted counts keys passed to a sort, once per dimension per key:
// d per absorbed row for a Set, so a session's delta is dims × labelled
// rows however often it retrains.
var obsKeysSorted = obs.GetCounter("cart.keys_sorted")

// Set is an append-only training set that keeps its rows presorted on
// every dimension across retrains — the presorted attribute lists of
// SLIQ (Mehta et al., EDBT 1996). A retrain sorts only the rows added
// since the previous one and merges them into each dimension's order, so
// a steering session sorts each labelled row once, not once per tree
// node per iteration. Induction then partitions the presorted orders
// stably down the tree; no node sorts.
//
// The zero Set is empty and ready to use. A Set is not safe for
// concurrent use.
type Set struct {
	dims int
	n    int // rows absorbed

	// sorted holds, per dimension, every absorbed row ordered by
	// ascending value (−0 = +0, NaN last), ties by ascending row index.
	sorted [][]entry

	// Induction scratch, reused across retrains. work holds dims+1
	// orders: a copy of each dimension's sorted order, then every row in
	// index order (key unused), which fixes the order node weights are
	// summed in. Each node owns the same [lo,hi) segment of every order.
	// left marks, per row, the side of the split being applied; spill
	// buffers a partition's right side; fresh holds the new rows' keys
	// while they sort.
	work    [][]entry
	left    []bool
	spill   []entry
	fresh   []entry
	dimBest []splitResult
}

// entry is one row's key on the dimension an order sorts.
type entry struct {
	key float64
	row int
}

// cmpEntry orders entries by ascending key with −0 = +0 and NaN last,
// ties by ascending row index: a strict total order, so any sort
// produces the same sequence.
func cmpEntry(a, b entry) int {
	switch {
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	}
	if an, bn := a.key != a.key, b.key != b.key; an != bn {
		if an {
			return 1
		}
		return -1
	}
	return cmp.Compare(a.row, b.row)
}

// Train fits a tree to points and labels, with per-sample weights when
// weights is non-nil (see TrainWeighted; nil takes the unweighted
// integer-arithmetic path). It first absorbs the points added since the
// previous call into the presorted orders.
//
// points may only grow between calls, by appending: rows already
// absorbed are never re-read for ordering, so editing, reordering or
// dropping them leaves the Set's orders stale. labels and weights are
// read afresh on every call, so flipping a label or changing a weight
// needs no Set update. Induction checks ctx at every node boundary and
// returns ctx.Err() once cancelled, dropping the partial tree; the rows
// absorbed stay absorbed.
func (s *Set) Train(ctx context.Context, points []geom.Point, labels []bool, weights []float64, params Params) (*Tree, error) {
	if weights != nil {
		if len(weights) != len(points) {
			return nil, fmt.Errorf("cart: %d weights vs %d points", len(weights), len(points))
		}
		for i, w := range weights {
			if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
				return nil, fmt.Errorf("cart: weight %d = %v (want finite > 0)", i, w)
			}
		}
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("cart: no training samples")
	}
	if len(points) != len(labels) {
		return nil, fmt.Errorf("cart: %d points vs %d labels", len(points), len(labels))
	}
	d := len(points[0])
	if d == 0 {
		return nil, fmt.Errorf("cart: zero-dimensional points")
	}
	for i, p := range points {
		if len(p) != d {
			return nil, fmt.Errorf("cart: point %d has %d dims, want %d", i, len(p), d)
		}
	}
	if s.n > 0 && d != s.dims {
		return nil, fmt.Errorf("cart: %d-dim points for a set of %d dims", d, s.dims)
	}
	if len(points) < s.n {
		return nil, fmt.Errorf("cart: %d points for a set that absorbed %d", len(points), s.n)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if params.MinLeaf < 1 {
		params.MinLeaf = 1
	}
	s.absorb(points)

	b := &builder{
		set:     s,
		points:  points,
		labels:  labels,
		weights: weights,
		params:  params,
		tree:    &Tree{dims: d, nodes: 1}, // the root; each split commits two more
	}
	if ctx != nil && ctx != context.Background() {
		b.ctx = ctx
	}
	s.reset()
	b.tree.root = b.build(0, s.n, 0)
	if b.ctx != nil {
		if err := b.ctx.Err(); err != nil {
			return nil, fmt.Errorf("cart: training cancelled: %w", err)
		}
	}
	return b.tree, nil
}

// absorb sorts the rows points[s.n:] on every dimension and merges them
// into the presorted orders.
func (s *Set) absorb(points []geom.Point) {
	n0, n := s.n, len(points)
	if n == n0 {
		return
	}
	if s.n == 0 {
		s.dims = len(points[0])
		s.sorted = make([][]entry, s.dims)
		s.work = make([][]entry, s.dims+1)
		s.dimBest = make([]splitResult, s.dims)
	}
	for d := range s.sorted {
		fresh := slices.Grow(s.fresh[:0], n-n0)
		for row := n0; row < n; row++ {
			fresh = append(fresh, entry{key: points[row][d], row: row})
		}
		slices.SortFunc(fresh, cmpEntry)
		s.sorted[d] = merge(s.sorted[d], fresh)
		s.fresh = fresh
	}
	obsKeysSorted.Add(int64(s.dims * (n - n0)))
	s.n = n
}

// merge merges the sorted fresh entries into the sorted old ones, in
// place from the back of old's grown storage. Every fresh row index
// exceeds every old one, so cmpEntry never reports a tie.
func merge(old, fresh []entry) []entry {
	i := len(old) - 1
	out := slices.Grow(old, len(fresh))[:len(old)+len(fresh)]
	for j, k := len(fresh)-1, len(out)-1; j >= 0; k-- {
		if i >= 0 && cmpEntry(out[i], fresh[j]) > 0 {
			out[k] = out[i]
			i--
		} else {
			out[k] = fresh[j]
			j--
		}
	}
	return out
}

// reset refills the induction scratch from the presorted orders.
func (s *Set) reset() {
	for d, order := range s.sorted {
		s.work[d] = append(s.work[d][:0], order...)
	}
	rows := s.work[s.dims][:0]
	for row := 0; row < s.n; row++ {
		rows = append(rows, entry{row: row})
	}
	s.work[s.dims] = rows
	if cap(s.left) < s.n {
		s.left = make([]bool, s.n)
	}
	s.left = s.left[:s.n]
	s.spill = slices.Grow(s.spill[:0], s.n)
}

// partition reorders the [lo,hi) segment of every work order so the
// rows marked left come first, each side keeping its order — so every
// side of a sorted order stays sorted.
func (s *Set) partition(lo, hi int) {
	for _, order := range s.work {
		seg := order[lo:hi]
		k := 0
		spill := s.spill[:0]
		for _, e := range seg {
			if s.left[e.row] {
				seg[k] = e
				k++
			} else {
				spill = append(spill, e)
			}
		}
		copy(seg[k:], spill)
		s.spill = spill
	}
}

// builder is one induction's state.
type builder struct {
	set     *Set
	points  []geom.Point
	labels  []bool
	weights []float64 // nil: the unweighted integer-arithmetic path
	params  Params
	ctx     context.Context // nil: never cancelled
	tree    *Tree
}

// build grows the subtree for the rows in the [lo,hi) segment of the
// work orders. A cancelled training context prunes the recursion
// immediately (Train discards the partial tree).
func (b *builder) build(lo, hi, depth int) *node {
	if b.ctx != nil && b.ctx.Err() != nil {
		return &node{dim: -1}
	}
	s, t := b.set, b.tree
	rows := s.work[s.dims][lo:hi]
	n := len(rows)
	nPos := 0
	for _, e := range rows {
		if b.labels[e.row] {
			nPos++
		}
	}
	nd := &node{dim: -1, n: n, nPos: nPos, relevant: nPos*2 > n}
	var wPos, wTot float64
	if b.weights != nil {
		// Weighted majority vote: down-weighted (conflicted) samples pull
		// less on the leaf prediction.
		for _, e := range rows {
			w := b.weights[e.row]
			wTot += w
			if b.labels[e.row] {
				wPos += w
			}
		}
		nd.relevant = wPos*2 > wTot
	}
	if nPos == 0 || nPos == n {
		return nd // pure
	}
	if b.params.MaxDepth > 0 && depth >= b.params.MaxDepth {
		return nd
	}
	if b.params.MaxNodes > 0 && t.nodes+2 > b.params.MaxNodes {
		// Node budget exhausted: stop splitting here. Because induction is
		// depth-first in a fixed order, the truncation point — and thus the
		// whole capped tree — is deterministic.
		t.capped = true
		return nd
	}
	dim, thr, gain := b.bestSplit(lo, hi, nPos, wPos, wTot)
	if dim < 0 || gain < b.params.MinGain {
		return nd
	}
	k := 0
	for _, e := range rows {
		left := b.points[e.row][dim] <= thr
		s.left[e.row] = left
		if left {
			k++
		}
	}
	if k < b.params.MinLeaf || n-k < b.params.MinLeaf {
		return nd
	}
	s.partition(lo, hi)
	nd.dim = dim
	nd.thr = thr
	// Commit both children before recursing so the MaxNodes check above
	// accounts for right siblings the depth-first walk has not built yet.
	t.nodes += 2
	nd.left = b.build(lo, lo+k, depth+1)
	nd.right = b.build(lo+k, hi, depth+1)
	return nd
}

// bestSplit scans every dimension's presorted segment for the midpoint
// threshold with maximal (weighted, when weights are set) Gini gain. The
// per-dimension sweeps are independent, so they fan out across the par
// worker pool; the cross-dimension merge then walks dimensions in
// ascending order, so ties break toward the lower dimension index and
// lower threshold and induction is deterministic — and identical — at
// every worker count.
//
// Tie-break semantics: each dimension keeps the first candidate whose
// gain exceeds its running per-dimension best by 1e-15, and the merge
// keeps the first dimension whose best exceeds the running cross-dim
// best by 1e-15. This fixed two-level rule is not bit-identical to a
// single global left-to-right sweep when candidates land within 1e-15 of
// each other across dimensions — a sub-epsilon near-tie astronomically
// rare on real data — but, unlike the global rule, it decomposes per
// dimension.
func (b *builder) bestSplit(lo, hi, nPos int, wPos, wTot float64) (bestDim int, bestThr, bestGain float64) {
	s := b.set
	n := hi - lo
	parent := gini(nPos, n)
	if b.weights != nil {
		parent = giniW(wPos, wTot)
	}
	// Work hint: the sweep reads n entries per dimension, so total cost
	// scales with dims × n. Deep nodes with a handful of samples run
	// inline instead of paying chunk handoff.
	par.ForWork(kernelSplit, b.params.Workers, s.dims, 1, s.dims*n, func(_, dlo, dhi int) {
		for d := dlo; d < dhi; d++ {
			if b.weights == nil {
				s.dimBest[d] = sweep(s.work[d][lo:hi], b.labels, parent, nPos)
			} else {
				s.dimBest[d] = sweepWeighted(s.work[d][lo:hi], b.labels, b.weights, parent, wPos, wTot)
			}
		}
	})
	bestDim = -1
	for d, r := range s.dimBest {
		if r.ok && r.gain > bestGain+1e-15 {
			bestDim, bestThr, bestGain = d, r.thr, r.gain
		}
	}
	return bestDim, bestThr, bestGain
}
