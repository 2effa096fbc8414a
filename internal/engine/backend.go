package engine

// This file is the shard execution boundary. ShardBackend is the
// complete query surface of ONE shard — everything the scatter-gather
// layer in shard.go needs from a shard, and nothing else — so the same
// supervised fan-out drives two implementations: localShard (below),
// which runs the batch walk in-process over the shard's slab slices,
// and internal/shardrpc's remote client, which ships each batch as one
// framed exchange to a worker process holding a bit-identical copy of
// the shard. Both write ExecuteBatch only; BatchAdapter derives the
// single-item methods from it. Results are plain data (row ids, counts,
// sample plan pieces); randomness, caching and gather order stay
// coordinator-side, which is what makes a remote shard bit-identical to
// a local one.

import (
	"context"
	"errors"
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

// Blocks materializes the piece for the wire, appending to full the
// covered cells' rows as blocks in cell order (subslices of the grid or
// the piece, never copied) and to partial the boundary cells' survivors.
// An encoder passes its previous buffers back, emptied.
func (s ShardSample) Blocks(full [][]int32, partial []int32) ([][]int32, []int32) {
	return s.piece.blocks(full, partial)
}

// ShardBatchItem is one sub-query of a batched scatter, as shipped to a
// ShardBackend (and, for remote shards, over shardrpc's opBatch frame
// in one round-trip). Kind selects the grid primitive; BatchRowsAny
// items read Rects instead of Rect.
type ShardBatchItem struct {
	Kind  BatchKind
	Rect  geom.Rect
	Rects []geom.Rect
}

// cacheable reports whether the predicate cache memoizes the item's
// answer: every item of a single rect.
func (it *ShardBatchItem) cacheable() bool { return it.Kind != BatchRowsAny }

// ShardBatchResult is one shard's answer to one ShardBatchItem; exactly
// one field group is populated, matching the item's kind.
type ShardBatchResult struct {
	Count  ShardCount
	Rows   ShardRows
	Sample ShardSample
}

// ShardBackend serves one shard's queries. Implementations must be
// safe for concurrent calls (attempts may overlap their own hedges) and
// must return results bit-identical to the in-process localShard: the
// scatter layer treats every backend — local or remote — as the same
// shard, and the bit-identity guarantee rests on it.
//
// Errors are the fault-isolation channel: a backend that cannot serve
// (worker dead, connection refused, torn frame) returns an error and the
// supervised scatter degrades to the named shard_partial:n/N contract;
// it must never return a partially wrong answer with a nil error.
type ShardBackend interface {
	// ShardIndex is the shard's position in the view's shard set.
	ShardIndex() int
	// NumRows is the number of rows the shard owns.
	NumRows() int
	// Count counts the shard's rows inside rect.
	Count(rect geom.Rect) (ShardCount, error)
	// RowsIn returns the shard's row ids inside rect in slot order.
	RowsIn(rect geom.Rect) (ShardRows, error)
	// RowsInAny returns the shard's row ids inside at least one rect,
	// deduplicated, in slot order.
	RowsInAny(rects []geom.Rect) (ShardRows, error)
	// SampleGrid returns the shard's piece of rect's sample plan.
	SampleGrid(rect geom.Rect) (ShardSample, error)
	// SortedSlice would return the shard's rows whose value along dim
	// lies in iv, in the covering index's order. No query path calls it:
	// a view answers covering-index samples from its own index and a
	// shard keeps none, so BatchAdapter answers ErrNotServed.
	SortedSlice(dim int, iv geom.Interval) ([]int32, error)
	// ExecuteBatch answers every item of a batch in one call — one
	// round-trip for remote backends — with results positionally
	// aligned to items and each bit-identical to the corresponding
	// single-item method.
	ExecuteBatch(items []ShardBatchItem) ([]ShardBatchResult, error)
}

// ErrNotServed is every shard backend's SortedSlice answer.
var ErrNotServed = errors.New("engine: shard backends serve no covering-index slice")

// BatchAdapter writes ShardBackend's single-item methods once, each as
// a one-item batch of Batch, so it answers exactly what the batch would,
// Examined included. A backend embeds it and sets Batch to its own
// ExecuteBatch.
type BatchAdapter struct {
	Batch func(items []ShardBatchItem) ([]ShardBatchResult, error)
}

func (a BatchAdapter) one(it ShardBatchItem) (ShardBatchResult, error) {
	out, err := a.Batch([]ShardBatchItem{it})
	if err != nil {
		return ShardBatchResult{}, err
	}
	return out[0], nil
}

func (a BatchAdapter) Count(rect geom.Rect) (ShardCount, error) {
	r, err := a.one(ShardBatchItem{Kind: BatchCount, Rect: rect})
	return r.Count, err
}

func (a BatchAdapter) RowsIn(rect geom.Rect) (ShardRows, error) {
	r, err := a.one(ShardBatchItem{Kind: BatchRows, Rect: rect})
	return r.Rows, err
}

func (a BatchAdapter) RowsInAny(rects []geom.Rect) (ShardRows, error) {
	r, err := a.one(ShardBatchItem{Kind: BatchRowsAny, Rects: rects})
	return r.Rows, err
}

func (a BatchAdapter) SampleGrid(rect geom.Rect) (ShardSample, error) {
	r, err := a.one(ShardBatchItem{Kind: BatchSample, Rect: rect})
	return r.Sample, err
}

func (BatchAdapter) SortedSlice(int, geom.Interval) ([]int32, error) { return nil, ErrNotServed }

// localShard is the in-process ShardBackend: the batch walk over the
// shard's own grid — not the view's, so a worker keeps neither the
// table nor any other shard alive. It errors only on a malformed item
// (check); other local failures surface as panics, which the scatter
// layer isolates per attempt.
type localShard struct {
	BatchAdapter
	sh *shard
}

func newLocalShard(sh *shard) *localShard {
	l := &localShard{sh: sh}
	l.Batch = l.ExecuteBatch
	return l
}

func (l *localShard) ShardIndex() int { return l.sh.index }
func (l *localShard) NumRows() int    { return l.sh.nrows }

// check rejects what the shard cannot evaluate: a kind outside the
// BatchKind enum; a rect whose arity is not the view's or with a NaN or
// inverted interval; and a RowsAny item with no rect or any such rect.
// A coordinator never sends one — its view drops invalid rects before
// the scatter — so this guards the worker against a malformed peer
// request, which becomes an error answer instead of an index panic or a
// silently wrong one.
func (l *localShard) check(it ShardBatchItem) error {
	dims := l.sh.grid.dims
	switch {
	case it.Kind > BatchRowsAny:
		return fmt.Errorf("engine: shard %d: unknown batch item kind %d", l.sh.index, it.Kind)
	case it.Kind == BatchRowsAny:
		if len(it.Rects) == 0 || slices.ContainsFunc(it.Rects, func(r geom.Rect) bool { return !wellFormed(r, dims) }) {
			return fmt.Errorf("engine: shard %d: disjunction of %d rects with a malformed one or none for a %d-dim view", l.sh.index, len(it.Rects), dims)
		}
	case !wellFormed(it.Rect, dims):
		return fmt.Errorf("engine: shard %d: malformed rect %v for a %d-dim view", l.sh.index, it.Rect, dims)
	}
	return nil
}

func (l *localShard) ExecuteBatch(items []ShardBatchItem) ([]ShardBatchResult, error) {
	return l.ExecuteBatchInto(items, nil)
}

// ExecuteBatchInto is ExecuteBatch writing into out's storage, grown
// when it is too short: it returns out resized to len(items) and
// overwritten. A shard worker passes one slice per connection, so a
// served batch allocates no result slice; it must be done with out's
// previous results, and the sample pieces it returns hold the items'
// rects, so it must also be done with these results before it reuses
// the items' storage.
func (l *localShard) ExecuteBatchInto(items []ShardBatchItem, out []ShardBatchResult) ([]ShardBatchResult, error) {
	for _, it := range items {
		if err := l.check(it); err != nil {
			return out, err
		}
	}
	out = slices.Grow(out[:0], len(items))[:len(items)]
	clear(out)
	// Cancellation is coordinator-side: the scatter discards results it
	// no longer wants, so the shard pass runs to completion.
	if len(items) > 0 {
		if err := batchGridEval(l.sh.grid, context.Background(), items, out); err != nil {
			return nil, err
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
		out[i] = newLocalShard(sh)
	}
	return out
}
