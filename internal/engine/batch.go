package engine

// This file is the batched execution path. ExecuteBatch evaluates N
// sub-queries (Count / RowsIn / SampleRect rectangles) in a single
// pass: on an unsharded view the grid-path sub-queries share one
// row-major walk over the union of their cell boxes (cells are pruned
// once, every covering rect is evaluated per cell with shared scan
// scratch); on a sharded view the whole batch rides ONE supervised
// scatter — one backend call (one RPC round-trip, for remote shards)
// per shard per batch instead of per query.
//
// The contract that makes this more than a fast path: batched sampling
// must consume the caller's rng in exactly the per-request order the
// sequential loop did. ExecuteBatch therefore plans every sample
// sub-query's candidate layout WITHOUT touching any rng (a compact
// plan, not row ids — see samplePiece in sample.go — memoized in the
// view's predicate cache, since it depends on the rect alone); the
// draws happen lazily, one sub-query at a time, when the caller invokes
// BatchResults.Sample(i, rng) at the same point the sequential code
// would have called View.SampleRect. A caller that halts mid-batch
// (budget, cancellation, conflict) simply never draws the remaining
// sub-queries, leaving the rng stream exactly where the sequential
// loop would have left it.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"github.com/explore-by-example/aide/internal/faultinject"
	"github.com/explore-by-example/aide/internal/geom"
)

// BatchKind selects the engine primitive a BatchQuery runs.
type BatchKind uint8

const (
	// BatchCount evaluates View.Count for the rect.
	BatchCount BatchKind = iota
	// BatchRows evaluates View.RowsIn for the rect.
	BatchRows
	// BatchSample plans View.SampleRect's candidate layout for the rect;
	// the rows are drawn later via BatchResults.Sample.
	BatchSample
)

// BatchQuery is one sub-query of a batch.
type BatchQuery struct {
	Kind BatchKind
	Rect geom.Rect
	// N is the sample size for BatchSample (ignored otherwise). N <= 0
	// yields an empty sample, like SampleRect.
	N int
}

// BatchResults holds a batch's evaluated results. Counts and rows are
// final; samples are lazy — Sample(i, rng) performs sub-query i's rng
// draws on demand, so the caller controls exactly which sub-queries
// consume rng state and in what order. The per-kind arrays are
// allocated only when the batch contains that kind, so a count-only
// batch (discovery's density probes) carries no sample/rows ballast.
// Sample plans resolve against the queries' rects at draw time, so the
// caller must leave those untouched until it is done drawing.
type BatchResults struct {
	v       *View
	queries []BatchQuery
	counts  []int
	rows    [][]int
	plans   [][]samplePiece // per sample sub-query: its plan's pieces, in layout order
	pieces  []samplePiece   // backing array the plans are cut from
	healthy int             // shards that served the batch (n for unsharded views)
}

// addPiece appends one piece to sub-query i's plan. A plan's pieces are
// added back to back, so the plan stays one contiguous cut of pieces.
func (r *BatchResults) addPiece(i int, p samplePiece) {
	r.pieces = append(r.pieces, p)
	n := len(r.plans[i]) + 1
	r.plans[i] = r.pieces[len(r.pieces)-n : len(r.pieces) : len(r.pieces)]
}

// Len returns the number of sub-queries.
func (r *BatchResults) Len() int { return len(r.queries) }

// Count returns sub-query i's matched-row count (0 for non-Count
// sub-queries).
func (r *BatchResults) Count(i int) int {
	if r.counts == nil {
		return 0
	}
	return r.counts[i]
}

// Rows returns sub-query i's matched rows (nil for non-Rows
// sub-queries). The slice is owned by the caller.
func (r *BatchResults) Rows(i int) []int {
	if r.rows == nil {
		return nil
	}
	return r.rows[i]
}

// Sample draws sub-query i's sample from its plan, consuming rng exactly
// as a draw over the materialized candidate layout would — same draws,
// same rows, same order. Each sub-query should be drawn at most once.
func (r *BatchResults) Sample(i int, rng *rand.Rand) []int {
	if r.queries[i].N <= 0 || r.plans == nil {
		return nil
	}
	out, examined := drawSample(r.plans[i], r.queries[i].N, rng)
	if examined > 0 {
		r.v.stats.RowsExamined.Add(examined)
		obsRowsExamined.Add(examined)
	}
	return out
}

// Healthy returns how many shards served the batch (the shard count
// for a complete answer; always full on unsharded views).
func (r *BatchResults) Healthy() int { return r.healthy }

// ExecuteBatch evaluates the sub-queries in one pass and returns their
// results. Fault-free results are bit-identical to running each
// sub-query through Count/RowsIn/SampleRect sequentially (sample draws
// included, via the lazy Sample contract above); on a sharded view the
// whole batch is one scatter, so a failed shard degrades every
// sub-query to the healthy subset at once, noted through the view's
// ShardTracker as usual.
func (v *View) ExecuteBatch(queries []BatchQuery) *BatchResults {
	defer observeQuery(time.Now())
	faultinject.Latency("engine.scan")
	faultinject.Panic("engine.scan")
	v.stats.Queries.Add(int64(len(queries)))
	res := &BatchResults{v: v, queries: queries}
	samples := 0
	for _, q := range queries {
		switch q.Kind {
		case BatchCount:
			if res.counts == nil {
				res.counts = make([]int, len(queries))
			}
		case BatchRows:
			if res.rows == nil {
				res.rows = make([][]int, len(queries))
			}
		case BatchSample:
			obsSampleCalls.Inc()
			samples++
		}
	}
	if samples > 0 {
		// One backing array for every plan's pieces: one per sample
		// sub-query, times the shard count on a sharded view.
		res.plans = make([][]samplePiece, len(queries))
		res.pieces = make([]samplePiece, 0, samples*max(1, v.ShardCount()))
	}
	if v.shards != nil {
		res.healthy = v.shards.n
		if len(queries) > 0 {
			v.executeBatchSharded(res)
			v.noteShardOutcome(res.healthy)
		}
		return res
	}
	res.healthy = 1
	if len(queries) > 0 {
		v.executeBatchLocal(res)
	}
	return res
}

// batchScratch is the reusable coordinator-side evaluation scratch of
// one local batch: the grid-path work list, its query back-references,
// and the per-item result slots. Pooled so a steady stream of batches
// (one per session iteration) allocates only what escapes into
// BatchResults — the inner row/candidate slices — not the bookkeeping
// around them.
type batchScratch struct {
	items     []ShardBatchItem
	itemQuery []int
	out       []ShardBatchResult
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// executeBatchLocal is the unsharded batch path: index-path samples
// slice the covering index directly, cached counts, rows and sample
// plans are answered from the predicate cache, and everything else
// shares one multi-rect grid pass.
func (v *View) executeBatchLocal(res *BatchResults) {
	sc := batchScratchPool.Get().(*batchScratch)
	defer func() {
		// Drop references to the row/candidate slices that escaped into
		// res before pooling the slots for the next batch.
		clear(sc.out)
		batchScratchPool.Put(sc)
	}()
	items := sc.items[:0]
	itemQuery := sc.itemQuery[:0]
	for i, q := range res.queries {
		if q.Kind == BatchSample && q.N <= 0 {
			// SampleRect answers n<=0 before rect validation or any
			// evaluation; mirror that (and skip the wasted work).
			continue
		}
		if !v.validRect(q.Rect) {
			obsInvalidRects.Inc()
			continue
		}
		if q.Kind == BatchSample {
			if dim := v.singleConstrainedDim(q.Rect); dim >= 0 {
				obsPathIndex.Inc()
				lo, hi := v.sortedRange(dim, q.Rect[dim])
				v.stats.RowsExamined.Add(int64(hi - lo))
				obsRowsExamined.Add(int64(hi - lo))
				res.addPiece(i, samplePiece{rows: v.sorted[dim][lo:hi], fullTotal: hi - lo})
				continue
			}
		}
		if v.cache != nil {
			if e, ok := v.cache.get(cacheKind(q.Kind), 0, q.Rect); ok {
				switch q.Kind {
				case BatchCount:
					res.counts[i] = e.count
				case BatchRows:
					if e.rows != nil {
						out := make([]int, len(e.rows))
						copy(out, e.rows)
						res.rows[i] = out
					}
				case BatchSample:
					res.addPiece(i, e.plan.bind(v.grid))
				}
				continue
			}
		}
		items = append(items, ShardBatchItem{Kind: q.Kind, Rect: q.Rect})
		itemQuery = append(itemQuery, i)
	}
	// One grid-path accounting update for the whole batch instead of an
	// atomic per sub-query.
	obsPathGrid.Add(int64(len(items)))
	sc.items, sc.itemQuery = items, itemQuery
	if len(items) == 0 {
		return
	}
	out := sc.out
	if cap(out) < len(items) {
		out = make([]ShardBatchResult, len(items))
	} else {
		out = out[:len(items)]
	}
	sc.out = out
	if err := batchGridEval(v.grid, v.scanCtx(), items, out); err != nil {
		// Cancelled mid-pass: partial results are garbage by contract.
		return
	}
	var examined int64
	for k := range out {
		r, i := &out[k], itemQuery[k]
		switch items[k].Kind {
		case BatchCount:
			examined += r.Count.Examined
			res.counts[i] = int(r.Count.Matched)
			if v.cache != nil {
				v.cache.put(kindCount, 0, res.queries[i].Rect, res.counts[i], nil)
			}
		case BatchRows:
			examined += r.Rows.Examined
			res.rows[i] = r.Rows.Rows
			if v.cache != nil {
				v.cache.put(kindRows, 0, res.queries[i].Rect, len(r.Rows.Rows), r.Rows.Rows)
			}
		case BatchSample:
			examined += r.Sample.Examined
			res.addPiece(i, r.Sample.piece)
			if v.cache != nil {
				v.cache.putPlan(0, res.queries[i].Rect, &r.Sample.piece)
			}
		}
	}
	v.stats.RowsExamined.Add(examined)
	obsRowsExamined.Add(examined)
}

// executeBatchSharded routes the whole batch through ONE supervised
// scatter: every shard receives the full miss list in a single backend
// call (one RPC round-trip for remote shards), with the per-shard
// predicate cache consulted coordinator-side exactly as the sequential
// sharded cores do — a shard whose items all hit is not called at all.
// Gathering reassembles each sub-query in shard order, reproducing the
// unsharded layouts bit-identically.
func (v *View) executeBatchSharded(res *BatchResults) {
	items := make([]ShardBatchItem, 0, len(res.queries))
	itemQuery := make([]int, 0, len(res.queries))
	hasSample := false
	var gridItems int64
	for i, q := range res.queries {
		if q.Kind == BatchSample && q.N <= 0 {
			continue
		}
		if !v.validRect(q.Rect) {
			obsInvalidRects.Inc()
			continue
		}
		if q.Kind == BatchSample {
			hasSample = true
			if dim := v.singleConstrainedDim(q.Rect); dim >= 0 {
				obsPathIndex.Inc()
				items = append(items, ShardBatchItem{Kind: BatchSample, Sorted: true, Dim: dim, Iv: q.Rect[dim]})
				itemQuery = append(itemQuery, i)
				continue
			}
		}
		gridItems++
		items = append(items, ShardBatchItem{Kind: q.Kind, Rect: q.Rect})
		itemQuery = append(itemQuery, i)
	}
	obsPathGrid.Add(gridItems)
	if len(items) == 0 {
		return
	}
	// The whole batch advances each shard's injected-fault stream once.
	// Sample-bearing batches roll the sample point so sampling chaos
	// tests keep firing; pure scan batches roll the scan point.
	point := FaultShardScan
	if hasSample {
		point = FaultShardSample
	}
	cache := v.cache
	perShard, ok, healthy := scatterShards(v.shards, v.scanCtx(), point, func(b ShardBackend) ([]ShardBatchResult, error) {
		salt := shardSalt(b.ShardIndex())
		out := make([]ShardBatchResult, len(items))
		var miss []ShardBatchItem
		var missAt []int
		for k, it := range items {
			if cache != nil && !it.Sorted {
				if e, hit := cache.get(cacheKind(it.Kind), salt, it.Rect); hit {
					switch it.Kind {
					case BatchCount:
						out[k].Count = ShardCount{Matched: int64(e.count)}
					case BatchRows:
						if e.rows != nil {
							rows := make([]int, len(e.rows))
							copy(rows, e.rows)
							out[k].Rows.Rows = rows
						}
					case BatchSample:
						out[k].Sample.piece = e.plan.bind(v.shards.planGrid(b.ShardIndex()))
					}
					continue
				}
			}
			miss = append(miss, it)
			missAt = append(missAt, k)
		}
		if len(miss) == 0 {
			return out, nil
		}
		rs, err := b.ExecuteBatch(miss)
		if err != nil {
			return nil, err
		}
		if len(rs) != len(miss) {
			return nil, fmt.Errorf("engine: shard %d batch returned %d results for %d items", b.ShardIndex(), len(rs), len(miss))
		}
		for j, r := range rs {
			out[missAt[j]] = r
			if cache != nil && !miss[j].Sorted {
				switch miss[j].Kind {
				case BatchCount:
					cache.put(kindCount, salt, miss[j].Rect, int(r.Count.Matched), nil)
				case BatchRows:
					cache.put(kindRows, salt, miss[j].Rect, len(r.Rows.Rows), r.Rows.Rows)
				case BatchSample:
					cache.putPlan(salt, miss[j].Rect, &r.Sample.piece)
				}
			}
		}
		return out, nil
	})
	res.healthy = healthy
	if v.scanCtx().Err() != nil {
		return
	}
	var examined int64
	for k, it := range items {
		i := itemQuery[k]
		switch {
		case it.Sorted:
			var parts [][]int32
			matched := 0
			for s := range perShard {
				if ok[s] && len(perShard[s][k].Sorted) > 0 {
					parts = append(parts, perShard[s][k].Sorted)
					matched += len(perShard[s][k].Sorted)
				}
			}
			examined += int64(matched)
			if len(parts) == 1 {
				res.addPiece(i, samplePiece{rows: parts[0], fullTotal: matched})
			} else if matched > 0 {
				res.addPiece(i, samplePiece{merged: &mergedRange{v, it.Dim, parts}, fullTotal: matched})
			}
		case it.Kind == BatchCount:
			var total int64
			for s := range perShard {
				if ok[s] {
					total += perShard[s][k].Count.Matched
					examined += perShard[s][k].Count.Examined
				}
			}
			res.counts[i] = int(total)
		case it.Kind == BatchRows:
			n := 0
			for s := range perShard {
				if ok[s] {
					n += len(perShard[s][k].Rows.Rows)
					examined += perShard[s][k].Rows.Examined
				}
			}
			if n > 0 {
				rows := make([]int, 0, n)
				for s := range perShard {
					if ok[s] {
						rows = append(rows, perShard[s][k].Rows.Rows...)
						releaseRowBuf(perShard[s][k].Rows.Rows)
					}
				}
				res.rows[i] = rows
			}
		default: // grid-path sample
			for s := range perShard {
				if ok[s] {
					res.addPiece(i, perShard[s][k].Sample.piece)
					examined += perShard[s][k].Sample.Examined
				}
			}
		}
	}
	v.stats.RowsExamined.Add(examined)
	obsRowsExamined.Add(examined)
}

// batchGridEval evaluates every grid-path item of a batch against one
// grid index (the whole view's, or one shard's), writing per-item
// results into out. When the items' cell boxes overlap enough, all
// items share ONE row-major walk over the union box — each cell is
// located and pruned once, and every covering item evaluates it with
// shared scan scratch; widely scattered items fall back to per-item
// walks (still sharing scratch), since a union walk over mostly-empty
// space would visit far more cells than the items own. Both modes
// evaluate each (cell, item) pair with identical semantics, so results
// are bit-identical to the sequential kernels either way.
func batchGridEval(g *gridIndex, ctx context.Context, items []ShardBatchItem, out []ShardBatchResult) error {
	n := len(items)
	dims := g.dims
	ws := batchWalkPool.Get().(*batchWalkScratch)
	defer batchWalkPool.Put(ws)
	if cap(ws.boxes) < n {
		ws.boxes = make([]batchBox, n)
	}
	// One backing array for every box's coordinate ranges plus the union
	// bounds and the odometer: 4 slices per box + 3 shared.
	if need := (4*n + 3) * dims; cap(ws.backing) < need {
		ws.backing = make([]int, need)
	}
	boxes := ws.boxes[:n]
	backing := ws.backing
	carve := func() []int {
		s := backing[:dims:dims]
		backing = backing[dims:]
		return s
	}
	active := false
	uLo, uHi, coord := carve(), carve(), carve()
	unionCells, sumCells := 1, 0
	for d := 0; d < dims; d++ {
		uLo[d], uHi[d] = g.cellsPerDim, -1
	}
	for k := range items {
		b := &boxes[k]
		b.lo, b.hi, b.cLo, b.cHi = carve(), carve(), carve(), carve()
		if items[k].Kind == BatchSample {
			out[k].Sample.piece = samplePiece{g: g, rect: items[k].Rect}
		}
		if b.ok = g.fillBox(b, items[k].Rect); !b.ok {
			continue
		}
		active = true
		cells := 1
		for d := 0; d < dims; d++ {
			cells *= b.hi[d] - b.lo[d] + 1
		}
		sumCells += cells
		for d := 0; d < dims; d++ {
			if b.lo[d] < uLo[d] {
				uLo[d] = b.lo[d]
			}
			if b.hi[d] > uHi[d] {
				uHi[d] = b.hi[d]
			}
		}
	}
	if !active {
		return nil
	}
	for d := 0; d < dims; d++ {
		unionCells *= uHi[d] - uLo[d] + 1
	}
	var scratch []uint64
	// Cells are row-major, so the innermost dimension's cells have
	// contiguous flat ids: both walks below iterate each innermost run
	// with a single increment instead of re-deriving the id from the
	// odometer per cell.
	inner := dims - 1
	// A union walk pays one visit per union cell regardless of how many
	// items cover it — but every visited cell also pays a coverage check
	// per item, so it only wins when the boxes genuinely pile up. Walk
	// the union when it at least halves the visit count; scattered boxes
	// (a session's spread-out probes) take the per-item walks, which
	// never visit a cell their item doesn't own.
	if 2*unionCells <= sumCells {
		copy(coord, uLo)
		visited := 0
		for {
			base := 0
			for d := 0; d < inner; d++ {
				base = base*g.cellsPerDim + coord[d]
			}
			id := base*g.cellsPerDim + uLo[inner]
			for c := uLo[inner]; c <= uHi[inner]; c++ {
				if visited++; visited&63 == 0 && ctx.Err() != nil {
					return ctx.Err()
				}
				coord[inner] = c
				if off, end := g.offsets[id], g.offsets[id+1]; off != end {
					for k := range items {
						b := &boxes[k]
						if !b.covers(dims, coord) {
							continue
						}
						evalBatchCell(g, &items[k], &out[k], b.coveredAt(dims, coord), int32(id), off, end, &scratch)
					}
				}
				id++
			}
			d := inner - 1
			for ; d >= 0; d-- {
				coord[d]++
				if coord[d] <= uHi[d] {
					break
				}
				coord[d] = uLo[d]
			}
			if d < 0 {
				return nil
			}
		}
	}
	var it *ShardBatchItem
	var o *ShardBatchResult
	span := func(slo, shi int32) bool {
		evalBatchCell(g, it, o, true, -1, slo, shi, &scratch)
		return true
	}
	cell := func(id, off, end int32) bool {
		evalBatchCell(g, it, o, false, id, off, end, &scratch)
		return true
	}
	for k := range items {
		if !boxes[k].ok {
			continue
		}
		it, o = &items[k], &out[k]
		if err := g.walkBox(ctx, &boxes[k], coord, span, cell); err != nil {
			return err
		}
	}
	return nil
}

// walkBox visits one item's cell box in row-major order — the order
// every kernel emits in, and the one place it and the covered/boundary
// split are decided for a per-item walk: span for each maximal slot
// range of geometrically covered cells (the covered cells of an
// innermost run are contiguous in id, hence in slots: one offsets lookup
// spans them, empty cells and all), cell for each non-empty boundary
// cell. Either callback returning false stops the walk; a cancelled ctx
// stops it with ctx's error. coord is the caller's odometer scratch.
func (g *gridIndex) walkBox(ctx context.Context, b *batchBox, coord []int, span func(slo, shi int32) bool, cell func(id, off, end int32) bool) error {
	inner := g.dims - 1
	copy(coord, b.lo)
	visited := 0
	for {
		id := 0
		outerCovered := true
		for d := 0; d < inner; d++ {
			id = id*g.cellsPerDim + coord[d]
			if coord[d] < b.cLo[d] || coord[d] > b.cHi[d] {
				outerCovered = false
			}
		}
		id = id*g.cellsPerDim + b.lo[inner]
		for c := b.lo[inner]; c <= b.hi[inner]; c, id = c+1, id+1 {
			if visited++; visited&63 == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			if outerCovered && c >= b.cLo[inner] && c <= b.cHi[inner] {
				last := id + b.cHi[inner] - c
				if slo, shi := g.offsets[id], g.offsets[last+1]; slo != shi && !span(slo, shi) {
					return nil
				}
				c, id = b.cHi[inner], last
				continue
			}
			if off, end := g.offsets[id], g.offsets[id+1]; off != end && !cell(int32(id), off, end) {
				return nil
			}
		}
		d := inner - 1
		for ; d >= 0; d-- {
			coord[d]++
			if coord[d] <= b.hi[d] {
				break
			}
			coord[d] = b.lo[d]
		}
		if d < 0 {
			return nil
		}
	}
}

// batchWalkScratch is batchGridEval's reusable walk state — the item
// boxes and the integer backing their coordinate ranges are carved
// from. Everything in it is overwritten before use and nothing escapes
// into results, so pooling it is invisible to callers.
type batchWalkScratch struct {
	boxes   []batchBox
	backing []int
}

var batchWalkPool = sync.Pool{New: func() any { return new(batchWalkScratch) }}

// batchBox is one item's precomputed cell box: the overlapping cell
// coordinate range per dimension plus the geometrically covered
// sub-range (coveredRange — the exact expressions visitCells' full
// flag evaluates, so "covered" stays bit-identical across paths).
type batchBox struct {
	ok       bool
	lo, hi   []int
	cLo, cHi []int
}

// fillBox computes rect's cell box on g into b's pre-sized ranges,
// reporting false when rect misses the domain.
func (g *gridIndex) fillBox(b *batchBox, rect geom.Rect) bool {
	for d := 0; d < g.dims; d++ {
		lo, hi, ok := g.cellRange(rect[d])
		if !ok {
			return false
		}
		b.lo[d], b.hi[d] = lo, hi
		b.cLo[d], b.cHi[d] = g.coveredRange(rect[d], lo, hi)
	}
	return true
}

func (b *batchBox) covers(dims int, coord []int) bool {
	if !b.ok {
		return false
	}
	for d := 0; d < dims; d++ {
		if coord[d] < b.lo[d] || coord[d] > b.hi[d] {
			return false
		}
	}
	return true
}

// coveredAt reports whether the cell at coord lies geometrically
// entirely inside the item's rect.
func (b *batchBox) coveredAt(dims int, coord []int) bool {
	for d := 0; d < dims; d++ {
		if coord[d] < b.cLo[d] || coord[d] > b.cHi[d] {
			return false
		}
	}
	return true
}

// evalBatchCell evaluates one (cell, item) pair with the sequential
// kernels' exact semantics: geometrically covered cells are answered
// from offsets alone, zonemap-covered cells emit whole blocks,
// zonemap-disjoint cells emit nothing, and straddling cells run the
// per-row columnar filter. Emission happens in the walk's row-major
// cell order with rows ascending per cell — the order every sequential
// kernel produces. A sample item emits no rows: it records what its
// plan needs to find a drawn row again in that same order.
func evalBatchCell(g *gridIndex, it *ShardBatchItem, out *ShardBatchResult, covered bool, id, off, end int32, scratch *[]uint64) {
	switch it.Kind {
	case BatchCount:
		if covered {
			out.Count.Matched += int64(end - off)
			return
		}
		m, ex := g.countCellBatched(it.Rect, id, off, end)
		out.Count.Matched += m
		out.Count.Examined += ex
	case BatchRows:
		zone := zoneCovered
		if !covered {
			zone = g.zoneClassify(it.Rect, id)
		}
		switch zone {
		case zoneCovered:
			n := len(out.Rows.Rows)
			out.Rows.Rows = slices.Grow(out.Rows.Rows, int(end-off))[:n+int(end-off)]
			widen(out.Rows.Rows[n:], g.rows[off:end])
		case zoneDisjoint:
		default:
			out.Rows.Examined += int64(end - off)
			*scratch = g.evalCellBits(it.Rect, id, off, end, (*scratch)[:0])
			emitBits(&out.Rows.Rows, g, off, *scratch)
		}
	case BatchSample:
		if covered {
			out.Sample.piece.fullTotal += int(end - off)
			return
		}
		m, ex := g.countCellBatched(it.Rect, id, off, end)
		out.Sample.Examined += ex
		out.Sample.piece.addCell(int(m))
	}
}

// countCellBatched is zoneClassify + countCell fused into one zonemap
// pass: the batch walk evaluates each (cell, item) pair exactly once,
// so the classify-then-count split the sequential kernels share would
// scan the cell's zonemap twice per pair. Classification, straddled-
// clause selection, sweeps, and the examined-row accounting (end-off
// for straddling cells, 0 when the zonemap alone answers) are all
// bit-identical to the sequential pair.
func (g *gridIndex) countCellBatched(rect geom.Rect, id, off, end int32) (matched, examined int64) {
	n := int64(end - off)
	var a0, a1 int
	na := 0
	for d := 0; d < g.dims; d++ {
		zmin, zmax := g.zoneMin[d][id], g.zoneMax[d][id]
		if zmax < rect[d].Lo || zmin > rect[d].Hi {
			return 0, 0
		}
		if zmin >= rect[d].Lo && zmax <= rect[d].Hi {
			continue
		}
		switch na {
		case 0:
			a0 = d
		case 1:
			a1 = d
		}
		na++
	}
	switch na {
	case 0:
		return n, 0
	case 1:
		lo, hi := rect[a0].Lo, rect[a0].Hi
		col := g.slabs[a0][off:end]
		m := 0
		for _, v := range col {
			keep := 1
			if v < lo || v > hi {
				keep = 0
			}
			m += keep
		}
		return int64(m), n
	case 2:
		lo0, hi0 := rect[a0].Lo, rect[a0].Hi
		lo1, hi1 := rect[a1].Lo, rect[a1].Hi
		col0 := g.slabs[a0][off:end]
		col1 := g.slabs[a1][off:end]
		m := 0
		for i, v := range col0 {
			keep := 1
			if v < lo0 || v > hi0 {
				keep = 0
			}
			w := col1[i]
			if w < lo1 || w > hi1 {
				keep = 0
			}
			m += keep
		}
		return int64(m), n
	}
	// Three or more straddled clauses: rare corner cells — the generic
	// sweep re-derives the clause set, which is fine off the hot path.
	return int64(g.countCell(rect, id, off, end)), n
}
