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
		a.Count, a.Rows = r.Count, r.Rows
		a.Rows.Rows = nilIfEmpty(a.Rows.Rows)
		if items[k].Kind == BatchSample {
			full, partial := r.Sample.Blocks(nil, nil)
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
// Rows, RowsAny and grid samples — over boundary rects of a
// dims-dimensional view.
func ServedBatch(dims int, rng *rand.Rand) []ShardBatchItem {
	rects := boundaryRects(dims, rng)
	var items []ShardBatchItem
	for i, r := range rects {
		items = append(items,
			ShardBatchItem{Kind: BatchCount, Rect: r},
			ShardBatchItem{Kind: BatchRows, Rect: r},
			ShardBatchItem{Kind: BatchSample, Rect: r})
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
// batches and moves Stats exactly as the sharded full view does. The
// SDSS shards are also built from SDSSSource, the stream a worker reads
// instead of the table.
func TestServedShardsMatchFullView(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	sdss := dataset.GenerateSDSS(40, 2)
	type build struct {
		tab *dataset.Table // the full view's table
		src dataset.Source // what the served shards are built from
	}
	builds := map[string]build{
		"nan":           {randomColumnarTable(3, 2000, rng, true), nil},
		"sparse":        {sdss, nil},
		"sparse-stream": {sdss, dataset.SDSSSource(40, 2)},
		"sdss-stream":   {dataset.GenerateSDSS(3000, 5), dataset.SDSSSource(3000, 5)},
		"empty":         {sdss.Subset("empty", nil), nil},
	}
	for name, bd := range builds {
		tab, src := bd.tab, bd.src
		if src == nil {
			src = tab
		}
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
				served, fp, err := NewServedShards(src, attrs, n, serve)
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
	rv, err := NewRemoteView(base.Table(), base.Attrs(), opts, served)
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

// TestFingerprintsPinned pins TableFingerprint and ViewFingerprint of
// GenerateSDSS tables to the values they had when the generator stored
// its columns row by row, and checks that a worker building from
// SDSSSource announces the same view fingerprint without a table.
func TestFingerprintsPinned(t *testing.T) {
	attrs := []string{"rowc", "colc", "ra", "dec"}
	for _, c := range []struct {
		n     int
		seed  int64
		table uint64
		view  string
	}{
		{0, 1, 0xc8e6ce19e831be56, "aide-fp1-1b4225c7c68ae518"},
		{1, 1, 0x5d88d0bd416ae617, "aide-fp1-46b90c8a248b1822"},
		{1000, 7, 0x18b020a471b6c38d, "aide-fp1-021b230ee894fef3"},
		{200000, 3, 0xcd02aab087d1fd9b, "aide-fp1-013ba43cd9359a0d"},
	} {
		tab := dataset.GenerateSDSS(c.n, c.seed)
		if got := TableFingerprint(tab); got != c.table {
			t.Errorf("TableFingerprint(GenerateSDSS(%d, %d)) = %#016x, want %#016x", c.n, c.seed, got, c.table)
		}
		if got := ViewFingerprint(tab, attrs); got != c.view {
			t.Errorf("ViewFingerprint(GenerateSDSS(%d, %d)) = %s, want %s", c.n, c.seed, got, c.view)
		}
		if _, got, err := NewServedShards(dataset.SDSSSource(c.n, c.seed), attrs, 2, []int{1}); err != nil || got != c.view {
			t.Errorf("NewServedShards(SDSSSource(%d, %d)) fingerprint %s (%v), want %s", c.n, c.seed, got, err, c.view)
		}
	}
}
