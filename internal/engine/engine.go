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
	"math/bits"
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/faultinject"
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
	tab     *dataset.Table
	cols    []int // table column indexes of the exploration attributes
	norm    *geom.Normalizer
	nanCol  []bool     // per dimension: the column holds a NaN
	grid    *gridIndex // nil on a view built by NewRemoteView
	sorted  [][]int32  // per-dimension row ids in ascending value order; nil when grid is
	stats   *Stats
	fp      string          // content fingerprint, set at build (fingerprint.go)
	cache   *Cache          // memoized counts, rows and sample plans; nil = uncached
	buf     *scanBuf        // single-owner scan scratch; nil on shared views
	workers int             // scan worker knob: 0 auto, 1 sequential
	ctx     context.Context // scan cancellation; nil = never cancelled
	shards  *shardSet       // sharded scatter-gather execution; nil = unsharded (shard.go)
	tracker *ShardTracker   // per-session partial-result sink; nil = untracked
}

// scanBuf is per-owner scratch reused across grid scans. A view carrying
// one must be confined to a single goroutine (each exploration session
// wraps the shared view with its own via WithScanBuffer); the base
// shared view carries none and stays safe for concurrent readers.
// arenas and segs are indexed by scan-chunk id: each chunk of a parallel
// scan runs exactly once per call, so per-chunk slots never race.
type scanBuf struct {
	runs   []cellRun
	arenas [][]uint64
	segs   [][]scanSeg
}

// scanSeg is one segment of a chunk's pass-1 scan decomposition: a slot
// range whose rows either all match (partial false) or filter through
// the chunk arena's next bitmap words (partial true). RowsIn's pass 2
// replays segments instead of re-walking and re-classifying cells.
type scanSeg struct {
	lo, hi  int32
	partial bool
}

// Parallel scan kernels. minScanRuns is the smallest number of cell runs
// worth chunking: below it, per-chunk bookkeeping dwarfs the scan.
var (
	kernelScan  = par.NewKernel("engine.scan")
	kernelIndex = par.NewKernel("engine.index_build")
)

const minScanRuns = 4

// NewView builds a View over the named exploration attributes, creating
// the covering index (sorted indexes + columnar grid index) with the
// default worker count (AIDE_WORKERS or GOMAXPROCS).
func NewView(tab *dataset.Table, attrs []string) (*View, error) {
	return NewViewWorkers(tab, attrs, 0)
}

// NewViewWorkers is NewView with an explicit worker count for both index
// construction and subsequent scans: 0 means automatic, 1 forces the
// sequential path. The built view is identical at every worker count.
func NewViewWorkers(tab *dataset.Table, attrs []string, workers int) (*View, error) {
	v, ncols, err := normalizeView(tab, attrs, workers)
	if err != nil {
		return nil, err
	}
	// The per-attribute sorts are independent, so attributes build
	// concurrently; the grid index then assigns rows to cells with a
	// parallel coordinate pass. Every step writes disjoint slots, so the
	// result is identical at any worker count. The row-ordered columns
	// die here: the grid's slot-ordered slabs are the one copy kept.
	v.sorted = make([][]int32, len(v.cols))
	par.For(kernelIndex, workers, len(v.cols), 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			v.sorted[i] = sortedIndex(ncols[i])
		}
	})
	v.grid = buildGridIndex(ncols, tab.NumRows(), workers)
	return v, nil
}

// normalizeView is the step every view constructor shares: resolve the
// attributes, fingerprint the view, and map each column into normalized
// space (attributes concurrently), noting which columns hold a NaN. It
// builds no index and returns the normalized columns, in row order, to
// the caller instead of keeping them.
func normalizeView(tab *dataset.Table, attrs []string, workers int) (*View, [][]float64, error) {
	cols, err := tab.ColumnIndexes(attrs)
	if err != nil {
		return nil, nil, err
	}
	if len(cols) == 0 {
		return nil, nil, fmt.Errorf("engine: view needs at least one attribute")
	}
	norm, err := tab.Normalizer(cols)
	if err != nil {
		return nil, nil, err
	}
	v := &View{tab: tab, cols: cols, norm: norm, stats: &Stats{}, workers: workers, fp: ViewFingerprint(tab, attrs)}
	ncols := make([][]float64, len(cols))
	v.nanCol = make([]bool, len(cols))
	par.For(kernelIndex, workers, len(cols), 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			src := tab.Col(cols[i])
			nc := make([]float64, len(src))
			for r, raw := range src {
				nc[r] = norm.ToNormValue(i, raw)
				if math.IsNaN(nc[r]) {
					v.nanCol[i] = true
				}
			}
			ncols[i] = nc
		}
	})
	return v, ncols, nil
}

// WithWorkers returns a view sharing this view's table, indexes and
// stats, whose scans use the given worker count (0 automatic, 1
// sequential). It is the per-session worker knob: the underlying view
// stays immutable and safe for concurrent readers.
func (v *View) WithWorkers(workers int) *View {
	c := *v
	c.workers = workers
	return &c
}

// Workers returns the view's scan worker knob (0 = automatic).
func (v *View) Workers() int { return v.workers }

// WithContext returns a view sharing this view's table, indexes and
// stats whose scans cooperatively stop — at the next chunk boundary —
// once ctx is cancelled. A cancelled scan returns partial, meaningless
// results (Count/RowsIn/SampleRect keep their error-free signatures), so
// callers MUST check ctx.Err() after each query and discard results on
// cancellation; the steering loop in internal/explore does exactly that.
// A nil ctx restores the never-cancelled default.
func (v *View) WithContext(ctx context.Context) *View {
	c := *v
	if ctx == context.Background() {
		ctx = nil
	}
	c.ctx = ctx
	return &c
}

// WithScanBuffer returns a view sharing this view's table, indexes and
// stats that reuses private scratch buffers (cell-run lists, cell-block
// lists, bitmap arenas) across grid scans instead of allocating fresh
// ones per query. The returned view must be confined to one goroutine
// (sessions are); the receiver is unchanged and stays safe for
// concurrent readers.
func (v *View) WithScanBuffer() *View {
	c := *v
	c.buf = &scanBuf{}
	return &c
}

// collectRuns returns the cell runs overlapping rect, reusing the view's
// scan buffer when it has one. The returned slice is valid until the
// owner's next query.
func (v *View) collectRuns(rect geom.Rect) []cellRun {
	if v.buf == nil {
		return v.grid.collectCellRuns(rect, nil)
	}
	v.buf.runs = v.grid.collectCellRuns(rect, v.buf.runs)
	return v.buf.runs
}

// ensureArenas sizes the per-chunk scratch tables before a parallel
// scan launches. It must run on the caller's goroutine: the kernels only
// index the tables, never grow them, so per-chunk slots can't race.
func (v *View) ensureArenas(chunks int) {
	if v.buf == nil || len(v.buf.arenas) >= chunks {
		return
	}
	a := make([][]uint64, chunks)
	copy(a, v.buf.arenas)
	v.buf.arenas = a
	s := make([][]scanSeg, chunks)
	copy(s, v.buf.segs)
	v.buf.segs = s
}

// chunkArena returns the reusable bitmap arena for one scan chunk,
// reset to length zero. Chunk indexes are dense and each runs exactly
// once per scan, so per-chunk slots never race even though chunks
// execute on pool workers. Bufferless views get a fresh arena with
// enough capacity that a typical boundary shell never regrows it.
func (v *View) chunkArena(chunk int) []uint64 {
	if v.buf == nil {
		return make([]uint64, 0, 512)
	}
	return v.buf.arenas[chunk][:0]
}

// saveChunkArena stows a chunk's (possibly grown) arena back into the
// scan buffer for reuse by the next query.
func (v *View) saveChunkArena(chunk int, arena []uint64) {
	if v.buf != nil {
		v.buf.arenas[chunk] = arena
	}
}

// chunkSegs returns the reusable segment list for one scan chunk, reset
// to length zero; saveChunkSegs stows it back after the scan.
func (v *View) chunkSegs(chunk int) []scanSeg {
	if v.buf == nil {
		return make([]scanSeg, 0, 256)
	}
	return v.buf.segs[chunk][:0]
}

func (v *View) saveChunkSegs(chunk int, segs []scanSeg) {
	if v.buf != nil {
		v.buf.segs[chunk] = segs
	}
}

// scanCtx returns the view's cancellation context (Background when
// unset).
func (v *View) scanCtx() context.Context {
	if v.ctx == nil {
		return context.Background()
	}
	return v.ctx
}

// sortedIndex returns row ids ordered by cmpSorted over vals (ascending
// value): one column of the covering index. Range lookups on a single
// attribute binary-search this instead of walking grid cells.
func sortedIndex(vals []float64) []int32 {
	idx := make([]int32, len(vals))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int { return cmpSorted(vals[a], vals[b], a, b) })
	return idx
}

// cmpSorted is the covering index's order on rows a and b with values va
// and vb: ascending value, NaNs after every number, equal values by
// ascending row id. It is a total order, so a k-way merge of per-shard
// subsequences (mergeSorted) reproduces sortedIndex's exact sequence at
// any shard count.
func cmpSorted(va, vb float64, a, b int32) int {
	// v != v only for a NaN; kept small enough for sortedIndex to inline.
	switch {
	case va < vb:
		return -1
	case va > vb:
		return 1
	case va == vb || va != va && vb != vb:
		return int(a) - int(b)
	case va != va:
		return 1
	}
	return -1
}

// sortedRange returns the half-open [lo, hi) positions in sorted[dim]
// whose values fall inside iv.
func (v *View) sortedRange(dim int, iv geom.Interval) (int, int) {
	return sortedRangeIn(v.sorted[dim], v.grid.slabs[dim], v.grid.slotOf, iv)
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

// LocalIndex reports whether the view holds its own grid and covering
// index: false only for a view built by NewRemoteView.
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

// Count returns the number of rows inside rect (normalized space).
// Maximal slot spans whose cells are covered by rect — geometrically or
// by their zonemaps — are answered from offset arithmetic alone; only
// boundary cells whose zonemaps straddle the rect run the columnar range
// filter. Cell runs are counted in parallel. With a cache attached
// (WithCache), repeated rects return the memoized count — bit-identical
// to a fresh scan, since the view is immutable.
func (v *View) Count(rect geom.Rect) int {
	defer observeQuery(time.Now())
	faultinject.Latency("engine.scan")
	faultinject.Panic("engine.scan")
	v.stats.Queries.Add(1)
	if !v.validRect(rect) {
		obsInvalidRects.Inc()
		return 0
	}
	if v.shards != nil {
		obsPathGrid.Inc()
		matched, healthy := v.countShardedCore(rect)
		v.noteShardOutcome(healthy)
		return matched
	}
	if v.cache != nil {
		if e, ok := v.cache.get(kindCount, 0, rect); ok {
			return e.count
		}
	}
	obsPathGrid.Inc()
	g := v.grid
	runs := v.collectRuns(rect)
	type counts struct{ matched, examined int64 }
	parts, err := par.MapCtx(v.scanCtx(), kernelScan, v.workers, len(runs), minScanRuns, func(_, lo, hi int) counts {
		var c counts
		for _, run := range runs[lo:hi] {
			g.walkRun(run, rect,
				func(slo, shi int32) { c.matched += int64(shi - slo) },
				func(id, off, end int32) {
					c.examined += int64(end - off)
					c.matched += int64(g.countCell(rect, id, off, end))
				})
		}
		return c
	})
	var total counts
	for _, c := range parts {
		total.matched += c.matched
		total.examined += c.examined
	}
	v.stats.RowsExamined.Add(total.examined)
	obsRowsExamined.Add(total.examined)
	if v.cache != nil && err == nil {
		// Never memoize a cancelled scan: its partial result is garbage by
		// contract, and a poisoned entry would outlive the cancellation.
		v.cache.put(kindCount, 0, rect, int(total.matched), nil)
	}
	return int(total.matched)
}

// RowsIn returns all row ids inside rect (normalized space). The order is
// unspecified but deterministic: grid cells in row-major order, rows
// ascending within each cell, independent of the worker count. The scan
// is two deterministic parallel passes over the overlapping cell runs:
// pass one answers metadata-covered slot spans from offsets and
// evaluates boundary cells into per-chunk match bitmaps (word-wise AND
// of the per-attribute range clauses); pass two converts spans and
// bitmaps into row ids, each chunk writing a disjoint range of the
// exactly-sized result. With a cache attached (WithCache), repeated
// rects return a copy of the memoized rows in that same order.
func (v *View) RowsIn(rect geom.Rect) []int {
	defer observeQuery(time.Now())
	faultinject.Latency("engine.scan")
	faultinject.Panic("engine.scan")
	v.stats.Queries.Add(1)
	if !v.validRect(rect) {
		obsInvalidRects.Inc()
		return nil
	}
	if v.shards != nil {
		obsPathGrid.Inc()
		rows, healthy := v.rowsShardedCore(rect)
		v.noteShardOutcome(healthy)
		return rows
	}
	if v.cache != nil {
		if e, ok := v.cache.get(kindRows, 0, rect); ok {
			if e.rows == nil {
				return nil
			}
			// Callers may mutate the returned slice, so every hit hands out
			// a private copy.
			out := make([]int, len(e.rows))
			copy(out, e.rows)
			return out
		}
	}
	obsPathGrid.Inc()
	g := v.grid
	runs := v.collectRuns(rect)
	// Pass 1: per-chunk match counts and boundary-cell bitmaps. The arena
	// holds each partial cell's bitmap consecutively in cell order, so
	// pass 2 can replay the same walk and consume words sequentially.
	type chunkScan struct {
		arena    []uint64
		segs     []scanSeg
		matched  int64
		examined int64
	}
	v.ensureArenas(par.ChunkCount(v.workers, len(runs), minScanRuns))
	parts, err := par.MapCtx(v.scanCtx(), kernelScan, v.workers, len(runs), minScanRuns, func(chunk, lo, hi int) chunkScan {
		c := chunkScan{arena: v.chunkArena(chunk), segs: v.chunkSegs(chunk)}
		for _, run := range runs[lo:hi] {
			g.walkRun(run, rect,
				func(slo, shi int32) {
					c.matched += int64(shi - slo)
					c.segs = append(c.segs, scanSeg{lo: slo, hi: shi})
				},
				func(id, off, end int32) {
					c.examined += int64(end - off)
					base := len(c.arena)
					c.arena = g.evalCellBits(rect, id, off, end, c.arena)
					for _, w := range c.arena[base:] {
						c.matched += int64(bits.OnesCount64(w))
					}
					c.segs = append(c.segs, scanSeg{lo: off, hi: end, partial: true})
				})
		}
		return c
	})
	if err != nil {
		// Cancelled mid-scan: the parts are torn garbage by contract.
		return nil
	}
	var examined, n int64
	for _, c := range parts {
		examined += c.examined
		n += c.matched
	}
	v.stats.RowsExamined.Add(examined)
	obsRowsExamined.Add(examined)
	if n == 0 {
		for chunk := range parts {
			v.saveChunkArena(chunk, parts[chunk].arena)
			v.saveChunkSegs(chunk, parts[chunk].segs)
		}
		if v.cache != nil {
			v.cache.put(kindRows, 0, rect, 0, nil)
		}
		return nil
	}
	// Pass 2: emit row ids by replaying each chunk's recorded segments —
	// full spans widen their slots' row ids, partial segments walk their
	// arena bitmap words. Chunk boundaries are recomputed identically
	// (same workers/n/minChunk), so parts[chunk] lines up with its runs,
	// and each chunk writes out[offs[chunk]:offs[chunk+1]] — disjoint,
	// deterministic, race-free.
	out := make([]int, n)
	pre := int64(0)
	offs := make([]int64, len(parts)+1)
	for i, c := range parts {
		offs[i] = pre
		pre += c.matched
	}
	offs[len(parts)] = pre
	err = par.ForCtx(v.scanCtx(), kernelScan, v.workers, len(runs), minScanRuns, func(chunk, _, _ int) {
		dst := out[offs[chunk]:offs[chunk+1]]
		arena := parts[chunk].arena
		k, aw := 0, 0
		for _, sg := range parts[chunk].segs {
			if !sg.partial {
				k += widen(dst[k:], g.rows[sg.lo:sg.hi])
				continue
			}
			nw := int(sg.hi-sg.lo+63) >> 6
			for w := 0; w < nw; w++ {
				bw := arena[aw+w]
				s := int(sg.lo) + w<<6
				for bw != 0 {
					t := bits.TrailingZeros64(bw)
					dst[k] = int(g.rows[s+t])
					k++
					bw &= bw - 1
				}
			}
			aw += nw
		}
		v.saveChunkArena(chunk, arena)
		v.saveChunkSegs(chunk, parts[chunk].segs)
	})
	if err != nil {
		return nil
	}
	if v.cache != nil {
		// The cache stores its own copy (see Cache.put): never a cancelled
		// scan's garbage, never memory the caller can mutate.
		v.cache.put(kindRows, 0, rect, len(out), out)
	}
	return out
}

// RowsInAny returns all row ids inside at least one of the rects — the
// disjunction primitive behind Query.Execute — in RowsIn's deterministic
// order (grid cells row-major, rows ascending within each cell). Each
// disjunct is evaluated with the same zonemap/offset metadata fast paths
// as RowsIn, but results accumulate by bitwise OR into one dense bitmap
// over the cell-major slot space, so overlapping areas dedup for free
// and row ids materialize exactly once at the end. A single-rect
// disjunction delegates to RowsIn to keep the predicate cache in play.
func (v *View) RowsInAny(rects []geom.Rect) []int {
	if len(rects) == 1 {
		return v.RowsIn(rects[0])
	}
	defer observeQuery(time.Now())
	faultinject.Latency("engine.scan")
	faultinject.Panic("engine.scan")
	v.stats.Queries.Add(1)
	if len(rects) == 0 {
		return nil
	}
	if v.shards != nil {
		valid := make([]geom.Rect, 0, len(rects))
		for _, rect := range rects {
			if v.validRect(rect) {
				valid = append(valid, rect)
			} else {
				obsInvalidRects.Inc()
			}
		}
		obsPathGrid.Inc()
		rows, healthy := v.rowsAnyShardedCore(valid)
		v.noteShardOutcome(healthy)
		return rows
	}
	g := v.grid
	bm := newSlotBitmap(len(g.rows))
	var examined int64
	var scratch []uint64
	for _, rect := range rects {
		if v.scanCtx().Err() != nil {
			return nil
		}
		if !v.validRect(rect) {
			obsInvalidRects.Inc()
			continue
		}
		obsPathGrid.Inc()
		for _, run := range v.collectRuns(rect) {
			g.walkRun(run, rect,
				func(slo, shi int32) { bm.setRange(slo, shi) },
				func(id, off, end int32) {
					examined += int64(end - off)
					scratch = g.evalCellBits(rect, id, off, end, scratch[:0])
					bm.orCellBits(off, scratch)
				})
		}
	}
	v.stats.RowsExamined.Add(examined)
	obsRowsExamined.Add(examined)
	n := bm.count()
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for w, bw := range bm {
		base := w << 6
		for bw != 0 {
			t := bits.TrailingZeros64(bw)
			out = append(out, int(g.rows[base+t]))
			bw &= bw - 1
		}
	}
	return out
}

// scanRect visits every row inside rect via the grid index, invoking fn
// for each; fn returning false stops the scan. Rows of cells fully
// contained in rect are emitted without per-row verification. This is
// the sequential per-row reference path; Count/RowsIn use the chunked
// cell-run scan with the zonemap/offset metadata fast paths instead
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
