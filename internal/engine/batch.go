package engine

// This file is the engine's one execution path. ExecuteBatch evaluates
// N sub-queries (Count / RowsIn / RowsInAny / SampleRect) in a single
// pass, and each of those methods is a batch of one. On an unsharded
// view the grid-path sub-queries share one row-major walk over the
// union of their cell boxes (cells are pruned once, every covering rect
// is evaluated per cell with shared scan scratch); on a sharded view
// they ride ONE supervised scatter — one backend call (one RPC
// round-trip, for remote shards) per shard per batch instead of per
// query. Covering-index samples slice the view's own index on every
// topology.
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
	"math/bits"
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
	// BatchRowsAny evaluates View.RowsInAny for Rects. It is never
	// cached.
	BatchRowsAny
)

// BatchQuery is one sub-query of a batch.
type BatchQuery struct {
	Kind BatchKind
	Rect geom.Rect
	// Rects are BatchRowsAny's disjuncts (Rect is ignored for it).
	Rects []geom.Rect
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

// Rows returns sub-query i's matched rows (nil for sub-queries of
// neither Rows kind). The slice is owned by the caller.
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

// exactErr is ErrPartialResult when a shard could not serve the batch.
func (r *BatchResults) exactErr() error {
	if r.v.shards != nil && r.healthy < r.v.shards.n {
		return ErrPartialResult
	}
	return nil
}

// ExecuteBatch evaluates the sub-queries in one pass and returns their
// results. Fault-free results are bit-identical to running each
// sub-query as a batch of its own (sample draws included, via the lazy
// Sample contract above) and to the per-row reference scan; on a
// sharded view the whole batch is one scatter, so a failed shard
// degrades every sub-query to the healthy subset at once, noted through
// the view's ShardTracker as usual. A cancelled batch (WithContext)
// answers empty.
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
		case BatchRows, BatchRowsAny:
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

// validQuery reports whether q asks for anything: a sample of no rows
// and a kind outside the enum do not, and neither does a malformed rect
// (counted as invalid), which matches no rows. For BatchRowsAny it
// returns the well-formed disjuncts, each malformed one counted, and q
// asks for something when any is left.
func (v *View) validQuery(q BatchQuery) ([]geom.Rect, bool) {
	switch q.Kind {
	case BatchRowsAny:
		if !slices.ContainsFunc(q.Rects, func(r geom.Rect) bool { return !v.validRect(r) }) {
			return q.Rects, len(q.Rects) > 0
		}
		var rects []geom.Rect
		for _, r := range q.Rects {
			if v.validRect(r) {
				rects = append(rects, r)
			} else {
				obsInvalidRects.Inc()
			}
		}
		return rects, len(rects) > 0
	case BatchSample:
		if q.N <= 0 {
			// SampleRect answers n<=0 before rect validation or any
			// evaluation; mirror that (and skip the wasted work).
			return nil, false
		}
	case BatchCount, BatchRows:
	default:
		return nil, false
	}
	if !v.validRect(q.Rect) {
		obsInvalidRects.Inc()
		return nil, false
	}
	return nil, true
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
		rects, ok := v.validQuery(q)
		switch {
		case !ok || q.Kind == BatchSample && v.indexSample(res, i):
			continue
		case q.Kind == BatchRowsAny:
			items = append(items, ShardBatchItem{Kind: BatchRowsAny, Rects: rects})
			itemQuery = append(itemQuery, i)
			continue
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
		case BatchRows, BatchRowsAny:
			examined += r.Rows.Examined
			res.rows[i] = r.Rows.Rows
			if v.cache != nil && items[k].cacheable() {
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

// indexSample plans sample sub-query i on the covering-index path when
// its rect constrains a single dimension (singleConstrainedDim), and
// reports whether it did: the plan is the view's covering-index range,
// found by two binary searches, on every topology and without a shard.
func (v *View) indexSample(res *BatchResults, i int) bool {
	rect := res.queries[i].Rect
	dim := v.singleConstrainedDim(rect)
	if dim < 0 {
		return false
	}
	obsPathIndex.Inc()
	lo, hi := v.sortedRange(dim, rect[dim])
	v.stats.RowsExamined.Add(int64(hi - lo))
	obsRowsExamined.Add(int64(hi - lo))
	res.addPiece(i, samplePiece{rows: v.sorted[dim][lo:hi], fullTotal: hi - lo})
	return true
}

// executeBatchSharded routes the batch's grid-path items through ONE
// supervised scatter: every shard receives the full miss list in a
// single backend call (one RPC round-trip for remote shards), with the
// per-shard predicate cache consulted coordinator-side exactly as the
// sequential sharded cores do — a shard whose items all hit is not
// called at all. Covering-index samples resolve from the view's own
// index first, so a batch of nothing else scatters nothing. Gathering
// reassembles each sub-query in shard order, reproducing the unsharded
// layouts bit-identically.
func (v *View) executeBatchSharded(res *BatchResults) {
	items := make([]ShardBatchItem, 0, len(res.queries))
	itemQuery := make([]int, 0, len(res.queries))
	hasSample := false
	for i, q := range res.queries {
		rects, ok := v.validQuery(q)
		if !ok || q.Kind == BatchSample && v.indexSample(res, i) {
			continue
		}
		hasSample = hasSample || q.Kind == BatchSample
		items = append(items, ShardBatchItem{Kind: q.Kind, Rect: q.Rect, Rects: rects})
		itemQuery = append(itemQuery, i)
	}
	obsPathGrid.Add(int64(len(items)))
	if len(items) == 0 {
		return
	}
	// The whole batch advances each shard's injected-fault stream once.
	// Batches with a grid-path sample roll the sample point so sampling
	// chaos tests keep firing; the rest roll the scan point.
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
			if cache != nil && it.cacheable() {
				if e, hit := cache.get(cacheKind(it.Kind), salt, it.Rect); hit {
					switch it.Kind {
					case BatchCount:
						out[k].Count = ShardCount{Matched: int64(e.count)}
					case BatchRows:
						if e.rows != nil {
							out[k].Rows.Rows = getRowBuf(len(e.rows))
							copy(out[k].Rows.Rows, e.rows)
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
			if cache != nil && miss[j].cacheable() {
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
		switch it.Kind {
		case BatchCount:
			var total int64
			for s := range perShard {
				if ok[s] {
					total += perShard[s][k].Count.Matched
					examined += perShard[s][k].Count.Examined
				}
			}
			res.counts[i] = int(total)
		case BatchRows, BatchRowsAny:
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
// are bit-identical either way. A RowsAny item walks its disjuncts into
// one slot bitmap (rowsAny). Rows items emit in two passes: the walk
// counts each item's matches and records its segments, then emitRows
// fills exactly sized buffers from getRowBuf. A cancelled ctx stops the
// walk within 64 cells and returns its error; a walk that finished first
// answers in full.
func batchGridEval(g *gridIndex, ctx context.Context, items []ShardBatchItem, out []ShardBatchResult) error {
	ws := batchWalkPool.Get().(*batchWalkScratch)
	defer batchWalkPool.Put(ws)
	ws.reset(g.dims, len(items))
	if err := ws.walk(g, ctx, items, out); err != nil {
		return err
	}
	for k := range items {
		if items[k].Kind == BatchRowsAny {
			if err := ws.rowsAny(g, ctx, &ws.boxes[k], items[k].Rects, &out[k].Rows); err != nil {
				return err
			}
		}
	}
	ws.emitRows(g, out)
	return nil
}

// walk evaluates the batch's single-rect items cell by cell: over the
// union of their boxes in one row-major walk when that at least halves
// the visits, item by item otherwise.
func (ws *batchWalkScratch) walk(g *gridIndex, ctx context.Context, items []ShardBatchItem, out []ShardBatchResult) error {
	dims := g.dims
	boxes, uLo, uHi, coord := ws.boxes, ws.uLo, ws.uHi, ws.coord
	active := false
	unionCells, sumCells := 1, 0
	for d := 0; d < dims; d++ {
		uLo[d], uHi[d] = g.cellsPerDim, -1
	}
	for k := range items {
		b := &boxes[k]
		b.ok = false
		switch items[k].Kind {
		case BatchRowsAny:
			continue
		case BatchSample:
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
						ws.evalBatchCell(g, k, &items[k], &out[k], b.coveredAt(dims, coord), int32(id), off, end)
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
	var k int
	span := func(slo, shi int32) bool {
		ws.evalBatchCell(g, k, &items[k], &out[k], true, -1, slo, shi)
		return true
	}
	cell := func(id, off, end int32) bool {
		ws.evalBatchCell(g, k, &items[k], &out[k], false, id, off, end)
		return true
	}
	for k = range items {
		if !boxes[k].ok {
			continue
		}
		if err := g.walkBox(ctx, &boxes[k], coord, span, cell); err != nil {
			return err
		}
	}
	return nil
}

// rowsAny evaluates a RowsAny item: each disjunct walks its own box
// (reusing b) with the Rows item's covered/zonemap/per-row split, ORing
// into one bitmap over g's slots, whose set bits are then emitted once,
// in slot order — so every row appears once however many rects hold it.
func (ws *batchWalkScratch) rowsAny(g *gridIndex, ctx context.Context, b *batchBox, rects []geom.Rect, out *ShardRows) error {
	bm := newSlotBitmap(len(g.rows))
	for _, rect := range rects {
		if !g.fillBox(b, rect) {
			continue
		}
		err := g.walkBox(ctx, b, ws.coord, func(slo, shi int32) bool {
			bm.setRange(slo, shi)
			return true
		}, func(id, off, end int32) bool {
			switch g.zoneClassify(rect, id) {
			case zoneCovered:
				bm.setRange(off, end)
			case zonePartial:
				out.Examined += int64(end - off)
				ws.words = g.evalCellBits(rect, id, off, end, ws.words[:0])
				bm.orCellBits(off, ws.words)
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	if n := bm.count(); n > 0 {
		out.Rows = getRowBuf(n)
		fillBits(out.Rows, g, 0, bm)
	}
	return nil
}

// emitRows is the Rows items' second pass: each item's buffer is sized
// exactly from the first pass's match count, then filled by replaying
// the recorded segments in walk order — covered spans widen their slots'
// row ids, boundary cells read their bitmap words back.
func (ws *batchWalkScratch) emitRows(g *gridIndex, out []ShardBatchResult) {
	for k, m := range ws.matched {
		if m > 0 {
			out[k].Rows.Rows = getRowBuf(m)
		}
		ws.matched[k] = 0 // from here on, the item's fill cursor
	}
	for _, sg := range ws.segs {
		dst := out[sg.item].Rows.Rows[ws.matched[sg.item]:]
		if sg.word < 0 {
			ws.matched[sg.item] += widen(dst, g.rows[sg.lo:sg.hi])
			continue
		}
		nw := int(sg.hi-sg.lo+63) >> 6
		ws.matched[sg.item] += fillBits(dst, g, sg.lo, ws.arena[sg.word:int(sg.word)+nw])
	}
}

// fillBits writes the row ids of words' set bits (bit i of word w is
// slot off+64w+i) into dst in slot order and returns how many it wrote.
func fillBits(dst []int, g *gridIndex, off int32, words []uint64) int {
	k := 0
	for w, bw := range words {
		for ; bw != 0; bw &= bw - 1 {
			dst[k] = int(g.rows[int(off)+w<<6+bits.TrailingZeros64(bw)])
			k++
		}
	}
	return k
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

// batchWalkScratch is batchGridEval's reusable walk state: the item
// boxes, the integer backing their coordinate ranges, the union bounds
// and the odometer are carved from, and the Rows items' first pass.
// Everything in it is overwritten before use and nothing escapes into
// results, so pooling it is invisible to callers.
type batchWalkScratch struct {
	boxes           []batchBox
	backing         []int
	uLo, uHi, coord []int
	matched         []int    // per item: Rows matches, then emitRows' fill cursor
	segs            []rowSeg // every Rows item's segments, in walk order
	arena           []uint64 // the boundary cells' bitmap words the segments point into
	words           []uint64 // rowsAny's per-cell bitmap
}

// rowSeg is one segment of a Rows item's first pass: the slots [lo, hi)
// of covered cells, whose rows all match (word < 0), or of one boundary
// cell, whose matches are the set bits of the arena from word on.
type rowSeg struct{ item, lo, hi, word int32 }

var batchWalkPool = sync.Pool{New: func() any { return new(batchWalkScratch) }}

// reset sizes the scratch for n items on a dims-dimensional grid,
// carving 4 ranges per box plus the union bounds and the odometer from
// one backing array.
func (ws *batchWalkScratch) reset(dims, n int) {
	if cap(ws.boxes) < n {
		ws.boxes = make([]batchBox, n)
	}
	ws.boxes = ws.boxes[:n]
	if need := (4*n + 3) * dims; cap(ws.backing) < need {
		ws.backing = make([]int, need)
	}
	backing := ws.backing
	carve := func() []int {
		s := backing[:dims:dims]
		backing = backing[dims:]
		return s
	}
	ws.uLo, ws.uHi, ws.coord = carve(), carve(), carve()
	for k := range ws.boxes {
		b := &ws.boxes[k]
		b.lo, b.hi, b.cLo, b.cHi = carve(), carve(), carve(), carve()
	}
	ws.matched = slices.Grow(ws.matched[:0], n)[:n]
	clear(ws.matched)
	ws.segs, ws.arena = ws.segs[:0], ws.arena[:0]
}

// addSpan records slots [lo, hi) of covered cells for Rows item k,
// extending the item's previous span when it ends where this one starts.
func (ws *batchWalkScratch) addSpan(k int, lo, hi int32) {
	ws.matched[k] += int(hi - lo)
	if n := len(ws.segs); n > 0 {
		if last := &ws.segs[n-1]; last.item == int32(k) && last.word < 0 && last.hi == lo {
			last.hi = hi
			return
		}
	}
	ws.segs = append(ws.segs, rowSeg{item: int32(k), lo: lo, hi: hi, word: -1})
}

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

// evalBatchCell evaluates one (cell, item) pair — item k, whose result is
// out: geometrically covered cells are answered from offsets alone,
// zonemap-covered cells take whole blocks, zonemap-disjoint cells
// nothing, and straddling cells run the per-row columnar filter. Walks
// visit cells in row-major order with rows ascending per cell, the
// order every result is emitted in. A Rows item records its segments
// for emitRows; a sample item emits no rows, only what its plan needs
// to find a drawn row again in that same order.
func (ws *batchWalkScratch) evalBatchCell(g *gridIndex, k int, it *ShardBatchItem, out *ShardBatchResult, covered bool, id, off, end int32) {
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
			ws.addSpan(k, off, end)
		case zonePartial:
			out.Rows.Examined += int64(end - off)
			base := len(ws.arena)
			ws.arena = g.evalCellBits(it.Rect, id, off, end, ws.arena)
			m := 0
			for _, w := range ws.arena[base:] {
				m += bits.OnesCount64(w)
			}
			if m == 0 {
				ws.arena = ws.arena[:base]
				return
			}
			ws.matched[k] += m
			ws.segs = append(ws.segs, rowSeg{item: int32(k), lo: off, hi: end, word: int32(base)})
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

// countCellBatched counts the rows of one cell inside rect in a single
// zonemap pass: a zonemap-disjoint cell matches nothing and a
// zonemap-covered one everything, both answered from metadata (0
// examined); otherwise each clause the zonemap does not settle sweeps
// its contiguous column slab, folding a branchless 0/1 per row, and the
// cell's end-off rows count as examined. The common boundary cell
// straddles the rect in exactly one dimension: a single column sweep.
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
	// Three or more straddled clauses: rare corner cells, where a per-row
	// sweep over every clause is fine off the hot path.
	m := 0
	for s := off; s < end; s++ {
		keep := 1
		for d := 0; d < g.dims; d++ {
			if v := g.slabs[d][s]; v < rect[d].Lo || v > rect[d].Hi {
				keep = 0
				break
			}
		}
		m += keep
	}
	return int64(m), n
}
