package engine

// This file is the shard execution boundary. ShardBackend is the
// complete query surface of ONE shard — everything the scatter-gather
// layer in shard.go needs from a shard, and nothing else — so the same
// supervised fan-out drives two implementations: localShard (below),
// which runs the batch walk in-process over the shard's slab slices,
// and internal/shardrpc's remote client, which ships the same
// operations over a framed wire protocol to a worker process holding a
// bit-identical copy of the shard. Results are plain data (row ids,
// counts, sample plan pieces); randomness, caching and gather order
// stay coordinator-side, which is what makes a remote shard
// bit-identical to a local one.

import (
	"context"
	"fmt"
	"slices"

	"github.com/explore-by-example/aide/internal/geom"
)

// ShardCount is one shard's Count contribution: rows matched plus the
// rows-examined accounting the gather folds into the view stats.
type ShardCount struct {
	Matched  int64
	Examined int64
}

// ShardRows is one shard's Rows or RowsAny contribution, rows in the
// shard's ascending slot (cell-major) order.
type ShardRows struct {
	Rows     []int
	Examined int64
}

// ShardSample is one shard's piece of a grid-path sample plan (see
// samplePiece). An in-process shard answers a lazy piece over its own
// slabs; a remote one is rebuilt coordinator-side from the rows the wire
// carried. The coordinator draws from the pieces in shard order, which
// reproduces the unsharded candidate layout.
type ShardSample struct {
	Examined int64
	piece    samplePiece
}

// NewShardSample wraps a materialized piece: rows holds the shard's
// fullTotal covered-cell rows followed by its boundary-cell survivors,
// both in cell order. The sample takes ownership of rows.
func NewShardSample(examined int64, rows []int32, fullTotal int) ShardSample {
	return ShardSample{Examined: examined, piece: samplePiece{rows: rows, fullTotal: fullTotal, partTotal: len(rows) - fullTotal}}
}

// Blocks materializes the piece for the wire: the covered cells' rows as
// blocks in cell order (never copied from the grid) and the boundary
// cells' survivors.
func (s ShardSample) Blocks() (full [][]int32, partial []int32) { return s.piece.blocks() }

// ShardBatchItem is one sub-query of a batched scatter, as shipped to a
// ShardBackend (and, for remote shards, over shardrpc's opBatch frame
// in one round-trip). Kind selects the grid primitive; Sorted items are
// covering-index slices instead (Dim/Iv used, Rect ignored), and
// BatchRowsAny items read Rects instead of Rect.
type ShardBatchItem struct {
	Kind   BatchKind
	Sorted bool
	Rect   geom.Rect
	Rects  []geom.Rect
	Dim    int
	Iv     geom.Interval
}

// cacheable reports whether the predicate cache memoizes the item's
// answer: every grid item of a single rect.
func (it *ShardBatchItem) cacheable() bool { return !it.Sorted && it.Kind != BatchRowsAny }

// ShardBatchResult is one shard's answer to one ShardBatchItem; exactly
// one field group is populated, matching the item's kind.
type ShardBatchResult struct {
	Count  ShardCount
	Rows   ShardRows
	Sample ShardSample
	Sorted []int32
}

// ShardBackend serves one shard's queries. Implementations must be
// safe for concurrent calls (attempts may overlap their own hedges) and
// must return results bit-identical to the in-process localShard: the
// scatter layer treats every backend — local or remote — as the same
// shard, and the bit-identity guarantee rests on it.
//
// Errors are the fault-isolation channel: a backend that cannot serve
// (worker dead, breaker open, torn frame) returns an error and the
// supervised scatter degrades to the named shard_partial:n/N contract;
// it must never return a partially wrong answer with a nil error.
type ShardBackend interface {
	// ShardIndex is the shard's position in the view's shard set.
	ShardIndex() int
	// NumRows is the number of rows the shard owns.
	NumRows() int
	// Ping verifies the backend can serve (health probe; the remote
	// implementation round-trips the wire).
	Ping() error
	// Count counts the shard's rows inside rect.
	Count(rect geom.Rect) (ShardCount, error)
	// RowsIn returns the shard's row ids inside rect in slot order.
	RowsIn(rect geom.Rect) (ShardRows, error)
	// RowsInAny returns the shard's row ids inside at least one rect,
	// deduplicated, in slot order.
	RowsInAny(rects []geom.Rect) (ShardRows, error)
	// SampleGrid returns the shard's piece of rect's sample plan.
	SampleGrid(rect geom.Rect) (ShardSample, error)
	// SortedSlice returns the shard's covering-index row ids for an
	// interval of one dimension, in (value, row id) order.
	SortedSlice(dim int, iv geom.Interval) ([]int32, error)
	// ExecuteBatch answers every item of a batch in one call — one
	// round-trip for remote backends — with results positionally
	// aligned to items and each bit-identical to the corresponding
	// single-item method.
	ExecuteBatch(items []ShardBatchItem) ([]ShardBatchResult, error)
	// Close releases backend resources (connections, for the remote
	// implementation). Local backends are no-ops.
	Close() error
}

// localShard is the in-process ShardBackend: the batch walk and the
// covering-index lookups over the shard's own grid — not the view's, so
// a worker keeps neither the table nor any other shard alive. It errors
// only on a malformed item (check); other local failures surface as
// panics, which the scatter layer isolates per attempt.
type localShard struct {
	sh *shard
}

func (l *localShard) ShardIndex() int { return l.sh.index }
func (l *localShard) NumRows() int    { return l.sh.nrows }
func (l *localShard) Ping() error     { return nil }
func (l *localShard) Close() error    { return nil }

// check rejects what the shard cannot evaluate: a kind outside the
// BatchKind enum; a rect whose arity is not the view's or with a NaN or
// inverted interval; a RowsAny item with no rect or any such rect; and a
// covering-index slice of a dimension the view lacks or over such an
// interval. A coordinator never sends one — its view drops invalid rects
// before the scatter — so this guards the worker against a malformed
// peer request, which becomes an error answer instead of an index panic
// or a silently wrong one.
func (l *localShard) check(it ShardBatchItem) error {
	dims := l.sh.grid.dims
	switch {
	case it.Kind > BatchRowsAny:
		return fmt.Errorf("engine: shard %d: unknown batch item kind %d", l.sh.index, it.Kind)
	case it.Sorted:
		if it.Dim < 0 || it.Dim >= dims || !validInterval(it.Iv) {
			return fmt.Errorf("engine: shard %d: covering-index slice of dim %d over %v in a %d-dim view", l.sh.index, it.Dim, it.Iv, dims)
		}
	case it.Kind == BatchRowsAny:
		if len(it.Rects) == 0 || slices.ContainsFunc(it.Rects, func(r geom.Rect) bool { return !wellFormed(r, dims) }) {
			return fmt.Errorf("engine: shard %d: disjunction of %d rects with a malformed one or none for a %d-dim view", l.sh.index, len(it.Rects), dims)
		}
	case !wellFormed(it.Rect, dims):
		return fmt.Errorf("engine: shard %d: malformed rect %v for a %d-dim view", l.sh.index, it.Rect, dims)
	}
	return nil
}

// one runs a single item as a batch of one: the single-op methods below
// are that, so they answer exactly what the batch would.
func (l *localShard) one(it ShardBatchItem) (ShardBatchResult, error) {
	out, err := l.ExecuteBatch([]ShardBatchItem{it})
	if err != nil {
		return ShardBatchResult{}, err
	}
	return out[0], nil
}

func (l *localShard) Count(rect geom.Rect) (ShardCount, error) {
	r, err := l.one(ShardBatchItem{Kind: BatchCount, Rect: rect})
	return r.Count, err
}

func (l *localShard) RowsIn(rect geom.Rect) (ShardRows, error) {
	r, err := l.one(ShardBatchItem{Kind: BatchRows, Rect: rect})
	return r.Rows, err
}

func (l *localShard) RowsInAny(rects []geom.Rect) (ShardRows, error) {
	r, err := l.one(ShardBatchItem{Kind: BatchRowsAny, Rects: rects})
	return r.Rows, err
}

func (l *localShard) SampleGrid(rect geom.Rect) (ShardSample, error) {
	r, err := l.one(ShardBatchItem{Kind: BatchSample, Rect: rect})
	return r.Sample, err
}

func (l *localShard) SortedSlice(dim int, iv geom.Interval) ([]int32, error) {
	r, err := l.one(ShardBatchItem{Kind: BatchSample, Sorted: true, Dim: dim, Iv: iv})
	return r.Sorted, err
}

func (l *localShard) ExecuteBatch(items []ShardBatchItem) ([]ShardBatchResult, error) {
	out := make([]ShardBatchResult, len(items))
	var grid []ShardBatchItem
	var gridAt []int
	for k, it := range items {
		if err := l.check(it); err != nil {
			return nil, err
		}
		if it.Sorted {
			out[k].Sorted = l.sh.sortedSlice(it.Dim, it.Iv)
			continue
		}
		grid = append(grid, it)
		gridAt = append(gridAt, k)
	}
	if len(grid) > 0 {
		// Cancellation is coordinator-side: the scatter discards results
		// it no longer wants, so the shard pass runs to completion.
		gout := make([]ShardBatchResult, len(grid))
		if err := batchGridEval(l.sh.grid, context.Background(), grid, gout); err != nil {
			return nil, err
		}
		for j, k := range gridAt {
			out[k] = gout[j]
		}
	}
	return out, nil
}

// LocalShardBackends returns the in-process backend for every shard of
// a sharded view, nil when the view is unsharded. A shard worker
// (cmd/aideshard) serves the same backends over the wire without
// building the view: NewServedShards builds only the ones it serves. It
// panics on a view built by NewRemoteView, which holds no shard
// partitions to serve.
func (v *View) LocalShardBackends() []ShardBackend {
	if v.shards == nil {
		return nil
	}
	if v.shards.shards == nil {
		panic("engine: LocalShardBackends on a view without local shards (NewRemoteView)")
	}
	out := make([]ShardBackend, v.shards.n)
	for i, sh := range v.shards.shards {
		out[i] = &localShard{sh: sh}
	}
	return out
}
