package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/geom"
)

// ShardAnswer is a shard backend's answer to one batch item in a form
// two backends can be compared by: a sample piece flattened to its
// covered rows and its boundary survivors, in layout order, however the
// piece is held (lazy over a grid, or as the rows a wire carried).
type ShardAnswer struct {
	Count          ShardCount
	Rows           ShardRows
	SampleExamined int64
	Full, Partial  []int32
	Sorted         []int32
}

// ShardAnswers runs items through b as one batch and flattens the
// results, an empty list as nil (the wire does not tell them apart).
// loopback_test.go shares it for the wire-served check.
func ShardAnswers(tb testing.TB, b ShardBackend, items []ShardBatchItem) []ShardAnswer {
	tb.Helper()
	res, err := b.ExecuteBatch(items)
	if err != nil {
		tb.Fatalf("shard %d: %v", b.ShardIndex(), err)
	}
	out := make([]ShardAnswer, len(res))
	for k, r := range res {
		a := &out[k]
		a.Count, a.Rows, a.Sorted = r.Count, r.Rows, nilIfEmpty(r.Sorted)
		a.Rows.Rows = nilIfEmpty(a.Rows.Rows)
		if items[k].Kind == BatchSample && !items[k].Sorted {
			full, partial := r.Sample.Blocks()
			for _, blk := range full {
				a.Full = append(a.Full, blk...)
			}
			a.SampleExamined, a.Partial = r.Sample.Examined, nilIfEmpty(partial)
		}
	}
	return out
}

func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

// ServedBatch is one batch of every item kind a shard serves — Count,
// Rows, RowsAny, grid samples and covering-index slices — over boundary
// rects of a dims-dimensional view.
func ServedBatch(dims int, rng *rand.Rand) []ShardBatchItem {
	rects := boundaryRects(dims, rng)
	var items []ShardBatchItem
	for i, r := range rects {
		items = append(items,
			ShardBatchItem{Kind: BatchCount, Rect: r},
			ShardBatchItem{Kind: BatchRows, Rect: r},
			ShardBatchItem{Kind: BatchSample, Rect: r},
			ShardBatchItem{Kind: BatchSample, Sorted: true, Dim: i % dims, Iv: r[i%dims]})
		if i > 0 {
			items = append(items, ShardBatchItem{Kind: BatchRowsAny, Rects: []geom.Rect{r, rects[i-1], r}})
		}
	}
	return items
}

// TestServedShardsMatchFullView pins NewServedShards, the shard worker's
// build, to the shards of a fully built view: at 1, 2, 3 and 5 shards
// and for every subset of them served, each served backend answers every
// batch item kind exactly as the full view's LocalShardBackends does —
// rows, order and examined counts — on a table with NaN columns, a
// sparse one with empty cells, and an empty one. With every shard
// served, a NewRemoteView over the served backends also answers whole
// batches and moves Stats exactly as the sharded full view does.
func TestServedShardsMatchFullView(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	sdss := dataset.GenerateSDSS(40, 2)
	tables := map[string]*dataset.Table{
		"nan":    randomColumnarTable(3, 2000, rng, true),
		"sparse": sdss,
		"empty":  sdss.Subset("empty", nil),
	}
	for name, tab := range tables {
		attrs := tab.Schema().Names()[:3]
		base, err := NewViewWorkers(tab, attrs, 2)
		if err != nil {
			t.Fatal(err)
		}
		batch := ServedBatch(len(attrs), rng)
		for _, n := range []int{1, 2, 3, 5} {
			opts := ShardOptions{Shards: n}
			sharded := base.WithShards(opts)
			full := sharded.LocalShardBackends()
			want := make([][]ShardAnswer, n)
			for i, b := range full {
				want[i] = ShardAnswers(t, b, batch)
			}
			for mask := 1; mask < 1<<n; mask++ {
				var serve []int
				for i := 0; i < n; i++ {
					if mask&(1<<i) != 0 {
						serve = append(serve, i)
					}
				}
				served, fp, err := NewServedShards(tab, attrs, 2, n, serve)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s shards=%d serve=%v", name, n, serve)
				if fp != base.Fingerprint() || len(served) != len(serve) {
					t.Fatalf("%s: fingerprint %s with %d backends, want %s with %d", label, fp, len(served), base.Fingerprint(), len(serve))
				}
				for _, i := range serve {
					b := served[i]
					if b.ShardIndex() != i || b.NumRows() != full[i].NumRows() {
						t.Fatalf("%s: backend %d is shard %d of %d rows, want %d", label, i, b.ShardIndex(), b.NumRows(), full[i].NumRows())
					}
					if got := ShardAnswers(t, b, batch); !reflect.DeepEqual(got, want[i]) {
						t.Fatalf("%s: shard %d answers differ from the full view's", label, i)
					}
				}
				if len(serve) == n {
					checkServedView(t, label, base, sharded, served, opts, rng)
				}
			}
		}
	}
}

// checkServedView runs random query batches through a NewRemoteView
// over served and through sharded, drawing every sample from the same
// seed, and compares results and Stats deltas.
func checkServedView(t *testing.T, label string, base, sharded *View, served map[int]ShardBackend, opts ShardOptions, rng *rand.Rand) {
	t.Helper()
	rv, err := NewRemoteView(base.Table(), base.Attrs(), 1, opts, served)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		queries := randomBatch(base.Dims(), rng)
		seed := rng.Int63()
		sharded.Stats().Reset()
		rv.Stats().Reset()
		wc, wr, ws := drainBatch(sharded, queries, rand.New(rand.NewSource(seed)))
		gc, gr, gs := drainBatch(rv, queries, rand.New(rand.NewSource(seed)))
		if !reflect.DeepEqual(gc, wc) || !reflect.DeepEqual(gr, wr) || !reflect.DeepEqual(gs, ws) {
			t.Fatalf("%s trial %d: served-shard view answers differ from the sharded full view", label, trial)
		}
		wq, we := sharded.Stats().Snapshot()
		if gq, ge := rv.Stats().Snapshot(); gq != wq || ge != we {
			t.Fatalf("%s trial %d: Stats moved by (%d queries, %d examined), want (%d, %d)", label, trial, gq, ge, wq, we)
		}
	}
}
