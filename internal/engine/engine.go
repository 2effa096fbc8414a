// Package engine is AIDE's database substrate. The paper runs on MySQL
// with a covering index over the exploration attributes; this package
// provides the equivalent capability in-process: an exploration View over
// a table with (a) per-attribute sorted indexes, (b) a columnar
// multi-dimensional grid index over the normalized exploration space
// (flat SoA cell slabs with per-cell zonemaps), (c) uniform random
// sampling restricted to arbitrary hyper-rectangles (the paper's "sample
// extraction queries"), and (d) simple-random-sample datasets
// (Section 5.2's sampled-dataset optimization).
//
// All region arguments are in the normalized [0,100] space of geom; the
// View owns the normalizer that maps raw attribute values there.
package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/par"
)

// Stats counts the work the engine performs on behalf of an exploration
// session. Counters are cumulative and safe for concurrent update.
type Stats struct {
	// Queries is the number of sample-extraction and evaluation queries
	// executed.
	Queries atomic.Int64
	// RowsExamined is the number of candidate rows the engine touched
	// (index entries scanned plus verification probes). Rows answered
	// from cell metadata alone (zonemaps, offset arithmetic) are free and
	// not counted.
	RowsExamined atomic.Int64
}

// Snapshot returns a plain copy of the counters.
func (s *Stats) Snapshot() (queries, rowsExamined int64) {
	return s.Queries.Load(), s.RowsExamined.Load()
}

// Reset zeroes the counters.
func (s *Stats) Reset() {
	s.Queries.Store(0)
	s.RowsExamined.Store(0)
}

// View is an indexed projection of a table onto d exploration attributes.
// It is immutable after construction and safe for concurrent readers.
type View struct {
	tab        *dataset.Table
	cols       []int // table column indexes of the exploration attributes
	norm       *geom.Normalizer
	nanCol     []bool        // per dimension: the column holds a NaN
	grid       *gridIndex    // nil on a view built by NewRemoteView
	sorted     [][]int32     // the covering index: per dimension, every row id in sortKey order (buildCoveringIndex)
	indexBuild time.Duration // how long buildCoveringIndex took
	stats      *Stats
	fp         string          // content fingerprint, set at build (fingerprint.go)
	cache      *Cache          // memoized counts, rows and sample plans; nil = uncached
	ctx        context.Context // scan cancellation; nil = never cancelled
	shards     *shardSet       // sharded scatter-gather execution; nil = unsharded (shard.go)
	tracker    *ShardTracker   // per-session partial-result sink; nil = untracked
}

// NewView builds a View over the named exploration attributes, creating
// the covering index (sorted indexes + columnar grid index) with the
// default build worker count, GOMAXPROCS.
func NewView(tab *dataset.Table, attrs []string) (*View, error) {
	return NewViewWorkers(tab, attrs, 0)
}

// NewViewWorkers is NewView with an explicit worker count for the index
// build: 0 means GOMAXPROCS, 1 forces the sequential path. The built view
// is identical at every worker count, and its queries do not depend on
// it.
func NewViewWorkers(tab *dataset.Table, attrs []string, workers int) (*View, error) {
	v, err := normalizeView(tab, attrs, workers)
	if err != nil {
		return nil, err
	}
	// The covering index is built first, so its sort scratch is already
	// garbage while the grid is laid out. The grid is laid out from a
	// census of the table through normAt, so its slot-ordered slabs are
	// the only normalized copy ever built. Every step writes disjoint
	// slots, so the result is identical at any worker count.
	v.buildCoveringIndex(workers)
	g := newGridIndex(len(v.cols), tab.NumRows())
	v.grid = g.layout(v, g.countCells(v, workers), 0, g.numCells(), workers)
	return v, nil
}

// normalizeView is the step every view constructor shares: resolve the
// attributes, fingerprint the view, and note which columns hold a NaN in
// normalized space (attributes concurrently). It builds no index and
// stores nothing per row.
func normalizeView(tab *dataset.Table, attrs []string, workers int) (*View, error) {
	cols, err := tab.ColumnIndexes(attrs)
	if err != nil {
		return nil, err
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("engine: view needs at least one attribute")
	}
	norm, err := tab.Normalizer(cols)
	if err != nil {
		return nil, err
	}
	v := &View{tab: tab, cols: cols, norm: norm, stats: &Stats{}, fp: ViewFingerprint(tab, attrs)}
	v.nanCol = make([]bool, len(cols))
	par.For(workers, len(cols), 1, func(_, lo, hi int) {
		for d := lo; d < hi; d++ {
			v.nanCol[d] = slices.ContainsFunc(tab.Col(cols[d]), func(raw float64) bool { return math.IsNaN(norm.ToNormValue(d, raw)) })
		}
	})
	return v, nil
}

// WithContext returns a view sharing this view's table, indexes and
// stats whose scans cooperatively stop once ctx is cancelled: a grid
// walk checks it every 64 cells. A read the cancellation stops answers
// empty — a count of zero, no rows, no grid sample — and is not cached;
// one whose walk finished first answers in full. Neither is torn, and a
// caller that checks ctx.Err() after each query and discards results on
// cancellation (the steering loop in internal/explore does) acts on
// neither. A nil ctx restores the never-cancelled default.
func (v *View) WithContext(ctx context.Context) *View {
	c := *v
	if ctx == context.Background() {
		ctx = nil
	}
	c.ctx = ctx
	return &c
}

// scanCtx returns the view's cancellation context (Background when
// unset).
func (v *View) scanCtx() context.Context {
	if v.ctx == nil {
		return context.Background()
	}
	return v.ctx
}

// sortKey maps a normalized value to its place in the covering index's
// value order as an unsigned integer: ascending value, −0 equal to +0,
// and every NaN equal to every other and after every number. It is the
// one definition of that order; sortCovering breaks its ties by
// ascending row id.
func sortKey(x float64) uint64 {
	if x != x {
		return math.MaxUint64
	}
	if x == 0 {
		x = 0 // −0 sorts as +0
	}
	b := math.Float64bits(x)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// radixBits is sortCovering's digit width: six passes cover a 64-bit
// key, and an even count leaves the sorted rows in the caller's slice.
// BenchmarkCoveringIndexBuild reads 11 bits about 1.6× faster than 16
// (four passes, but each scatters into 65 536 buckets) and 1.3× faster
// than 8.
const radixBits = 11

// coverScratch is sortCovering's reusable scratch: the second key and
// row buffers (12 B/row) and one bucket count array per row chunk (8 KiB
// each).
type coverScratch struct {
	keys   []uint64
	rows   []int32
	counts [][]int32
}

// sortCovering sorts rows into the covering index's order, in place:
// keys[i] is rows[i]'s sortKey, and keys ends sorted too. It is a stable
// LSD radix sort, so rows given in ascending row-id order keep equal
// keys in that order. Each pass counts and scatters row chunks in
// parallel (workers as for par.For), every chunk's rows after the
// earlier chunks' within a bucket, so the result is identical at any
// worker count.
func sortCovering(keys []uint64, rows []int32, sc *coverScratch, workers int) {
	const minChunk, mask = 1 << 16, 1<<radixBits - 1
	n := len(keys)
	if cap(sc.keys) < n {
		sc.keys, sc.rows = make([]uint64, n), make([]int32, n)
	}
	chunks := par.ChunkCount(workers, n, minChunk)
	for len(sc.counts) < chunks {
		sc.counts = append(sc.counts, make([]int32, 1<<radixBits))
	}
	srcK, srcR, dstK, dstR := keys, rows, sc.keys[:n], sc.rows[:n]
	for shift := 0; shift < 64; shift += radixBits {
		par.For(workers, n, minChunk, func(c, lo, hi int) {
			cnt := sc.counts[c]
			clear(cnt)
			for _, k := range srcK[lo:hi] {
				cnt[k>>shift&mask]++
			}
		})
		sum := int32(0)
		for b := 0; b <= mask; b++ {
			for _, cnt := range sc.counts[:chunks] {
				cnt[b], sum = sum, sum+cnt[b]
			}
		}
		par.For(workers, n, minChunk, func(c, lo, hi int) {
			off := sc.counts[c]
			for i := lo; i < hi; i++ {
				k := srcK[i]
				j := off[k>>shift&mask]
				off[k>>shift&mask] = j + 1
				dstK[j], dstR[j] = k, srcR[i]
			}
		})
		srcK, srcR, dstK, dstR = dstK, dstR, srcK, srcR
	}
}

// buildCoveringIndex sets v.sorted, one dimension at a time over one
// scratch (20 B/row): each dimension's row ids, ascending, are sorted by
// the sortKey of their values through normAt — the expression the grid's
// slabs store — so a view built with or without a grid holds the same
// index.
func (v *View) buildCoveringIndex(workers int) {
	start := time.Now()
	n := v.NumRows()
	keys := make([]uint64, n)
	sc := &coverScratch{}
	v.sorted = make([][]int32, len(v.cols))
	for d := range v.sorted {
		rows := make([]int32, n)
		par.For(workers, n, 1<<16, func(_, lo, hi int) {
			for r := lo; r < hi; r++ {
				rows[r], keys[r] = int32(r), sortKey(v.normAt(d, r))
			}
		})
		sortCovering(keys, rows, sc, workers)
		v.sorted[d] = rows
	}
	v.indexBuild = time.Since(start)
}

// CoveringIndex reports how long the view's covering index took to
// build and the bytes it holds.
func (v *View) CoveringIndex() (build time.Duration, bytes int64) {
	return v.indexBuild, 4 * int64(v.NumRows()) * int64(len(v.sorted))
}

// sortedRange returns the half-open [lo, hi) positions in sorted[dim]
// whose values fall inside iv, reading each probed value through normAt.
func (v *View) sortedRange(dim int, iv geom.Interval) (int, int) {
	idx := v.sorted[dim]
	return sortedRangeIn(len(idx), func(i int) float64 { return v.normAt(dim, int(idx[i])) }, iv)
}

// singleConstrainedDim reports the only dimension of rect narrower than
// the full domain — the covering-index sample path — or -1 when zero or
// several dimensions are constrained, or when that column holds a NaN:
// a NaN passes every range clause (Contains' semantics, which the grid
// kernels reproduce) but has no place in a value order, so such a
// column's samples take the grid path and stay uniform over RowsIn.
func (v *View) singleConstrainedDim(rect geom.Rect) int {
	dim := -1
	for i := range rect {
		if rect[i].Lo <= geom.NormMin && rect[i].Hi >= geom.NormMax {
			continue
		}
		if dim >= 0 {
			return -1
		}
		dim = i
	}
	if dim >= 0 && v.nanCol[dim] {
		return -1
	}
	return dim
}

// validRect reports whether rect is a well-formed query region for this
// view: the view's dimensionality with NaN-free, non-inverted intervals.
// An invalid rect matches no rows, so the scan entry points return empty
// results for it instead of feeding NaN into the grid-cell arithmetic
// (where int(NaN) would index out of range). ±Inf endpoints are fine:
// cellRange clamps them to the domain.
func (v *View) validRect(rect geom.Rect) bool { return wellFormed(rect, len(v.cols)) }

// wellFormed reports whether rect has dims NaN-free, non-inverted
// intervals (validRect for a view, localShard.check for a shard).
func wellFormed(rect geom.Rect, dims int) bool {
	if len(rect) != dims {
		return false
	}
	for _, iv := range rect {
		if !validInterval(iv) {
			return false
		}
	}
	return true
}

func validInterval(iv geom.Interval) bool {
	return !math.IsNaN(iv.Lo) && !math.IsNaN(iv.Hi) && iv.Lo <= iv.Hi
}

// Table returns the underlying table.
func (v *View) Table() *dataset.Table { return v.tab }

// Attrs returns the exploration attribute names in order.
func (v *View) Attrs() []string {
	out := make([]string, len(v.cols))
	for i, c := range v.cols {
		out[i] = v.tab.Schema()[c].Name
	}
	return out
}

// Dims returns the dimensionality of the exploration space.
func (v *View) Dims() int { return len(v.cols) }

// LocalIndex reports whether the view holds its own grid: false only for
// a view built by NewRemoteView, which holds the covering index alone.
func (v *View) LocalIndex() bool { return v.grid != nil }

// NumRows returns the number of rows visible through the view.
func (v *View) NumRows() int { return v.tab.NumRows() }

// Normalizer returns the raw<->normalized mapping for the view's
// attributes.
func (v *View) Normalizer() *geom.Normalizer { return v.norm }

// Stats returns the engine counters for this view.
func (v *View) Stats() *Stats { return v.stats }

// normAt returns row's normalized value along dimension d from the table,
// by the expression the index build stores: bit-identical to the grid's
// slab value, and available on a NewRemoteView view, which has no slabs.
func (v *View) normAt(d, row int) float64 {
	return v.norm.ToNormValue(d, v.tab.Value(row, v.cols[d]))
}

// NormPoint returns row's exploration attributes in normalized space.
func (v *View) NormPoint(row int) geom.Point {
	p := make(geom.Point, len(v.cols))
	for i := range p {
		p[i] = v.normAt(i, row)
	}
	return p
}

// RawPoint returns row's exploration attributes in raw space.
func (v *View) RawPoint(row int) geom.Point {
	return v.tab.Project(row, v.cols)
}

// FullRow returns the entire row (all table columns), the tuple a user
// would review.
func (v *View) FullRow(row int) geom.Point { return v.tab.Row(row) }

// Contains reports whether the row's normalized point lies in rect.
func (v *View) Contains(rect geom.Rect, row int) bool {
	for i := range v.cols {
		if val := v.normAt(i, row); val < rect[i].Lo || val > rect[i].Hi {
			return false
		}
	}
	return true
}

// MatchesAny reports whether the row lies in any of the rects.
func (v *View) MatchesAny(rects []geom.Rect, row int) bool {
	for _, r := range rects {
		if v.Contains(r, row) {
			return true
		}
	}
	return false
}

// Count returns the number of rows inside rect (normalized space). It is
// a batch of one: ExecuteBatch answers slot spans of covered cells from
// offset arithmetic, zonemap-decided cells from metadata, and only
// straddling cells run the columnar range filter. With a cache attached
// (WithCache), repeated rects return the memoized count.
func (v *View) Count(rect geom.Rect) int {
	return v.ExecuteBatch([]BatchQuery{{Kind: BatchCount, Rect: rect}}).Count(0)
}

// RowsIn returns all row ids inside rect (normalized space), in the
// engine's deterministic order: grid cells row-major, rows ascending
// within each cell, at any shard count. It is a batch of one, emitted in
// two passes into an exactly sized slice owned by the caller. With a
// cache attached (WithCache), repeated rects return a copy of the
// memoized rows in that same order.
func (v *View) RowsIn(rect geom.Rect) []int {
	return v.ExecuteBatch([]BatchQuery{{Kind: BatchRows, Rect: rect}}).Rows(0)
}

// RowsInAny returns all row ids inside at least one of the rects — the
// disjunction primitive behind Query.Execute — in RowsIn's order, each
// row once. It is a batch of one BatchRowsAny item: every disjunct ORs
// into one bitmap over the slot space, so overlapping areas dedup for
// free and row ids materialize once at the end. A single-rect
// disjunction is RowsIn, which keeps the predicate cache in play.
func (v *View) RowsInAny(rects []geom.Rect) []int {
	if len(rects) == 1 {
		return v.RowsIn(rects[0])
	}
	return v.ExecuteBatch([]BatchQuery{{Kind: BatchRowsAny, Rects: rects}}).Rows(0)
}

// scanRect visits every row inside rect via the grid index, invoking fn
// for each; fn returning false stops the scan. Rows of cells fully
// contained in rect are emitted without per-row verification. This is
// the sequential per-row reference path the tests hold every query
// against; queries run through ExecuteBatch's cell walk instead
// (benchmarked against this in bench_test.go).
func (v *View) scanRect(rect geom.Rect, fn func(row int) bool) {
	if !v.validRect(rect) {
		obsInvalidRects.Inc()
		return
	}
	obsPathGrid.Inc()
	examined := int64(0)
	defer func() {
		v.stats.RowsExamined.Add(examined)
		obsRowsExamined.Add(examined)
	}()
	v.grid.visitCells(rect, func(_ int32, rows []int32, full bool) bool {
		examined += int64(len(rows))
		for _, r := range rows {
			if full || v.Contains(rect, int(r)) {
				if !fn(int(r)) {
					return false
				}
			}
		}
		return true
	})
}

// Sampled returns a new View over a simple random sample of the
// underlying table (each row kept independently is approximated by a
// fixed-size SRS of round(fraction*n) rows), per Section 5.2. Attribute
// domains — and therefore the normalized space — are preserved.
func (v *View) Sampled(fraction float64, seed int64) (*View, error) {
	if fraction <= 0 || fraction > 1 {
		return nil, fmt.Errorf("engine: sample fraction %v out of (0,1]", fraction)
	}
	n := v.tab.NumRows()
	k := int(math.Round(fraction * float64(n)))
	if k < 1 {
		k = 1
	}
	rng := rand.New(rand.NewSource(seed))
	rows := rng.Perm(n)[:k]
	sub := v.tab.Subset(v.tab.Name()+"_sample", rows)
	return NewView(sub, v.Attrs())
}
