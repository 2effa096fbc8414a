package shardrpc

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/geom"
)

// remoteBatchQueries builds a mixed batch exercising every wire kind —
// grid counts, rows and samples — plus covering-index samples, which the
// coordinator answers without the wire.
func remoteBatchQueries(rng *rand.Rand) []engine.BatchQuery {
	rects := randomRects(12, 2, rng)
	out := make([]engine.BatchQuery, 0, len(rects)+2)
	for i, rect := range rects {
		q := engine.BatchQuery{Rect: rect}
		switch i % 3 {
		case 0:
			q.Kind = engine.BatchCount
		case 1:
			q.Kind = engine.BatchRows
		default:
			q.Kind = engine.BatchSample
			q.N = 5 + rng.Intn(20)
		}
		out = append(out, q)
	}
	out = append(out,
		engine.BatchQuery{Kind: engine.BatchSample, N: 15, Rect: singleDimRect(2, 0, 20, 45)},
		engine.BatchQuery{Kind: engine.BatchSample, N: 15, Rect: singleDimRect(2, 1, 33, 66)},
	)
	return out
}

// TestRemoteBitIdentityBatch pins the batched path across the wire: a
// mixed local/remote topology drains whole batches bit-identically to
// the unsharded sequential loop, and every batch costs exactly ONE
// opBatch round-trip per remote shard.
func TestRemoteBitIdentityBatch(t *testing.T) {
	base, sharded := testViews(t, 8000, 4)
	addr, _ := startWorker(t, 8000, 4, []int{1, 3})
	mixed, _ := dialWorker(t, sharded, addr, Options{})

	gen := rand.New(rand.NewSource(17))
	for round := 0; round < 6; round++ {
		queries := remoteBatchQueries(gen)
		seed := int64(round + 1)

		seqRng := rand.New(rand.NewSource(seed))
		wantCounts := make([]int, len(queries))
		wantRows := make([][]int, len(queries))
		wantSamples := make([][]int, len(queries))
		for i, q := range queries {
			switch q.Kind {
			case engine.BatchCount:
				wantCounts[i] = base.Count(q.Rect)
			case engine.BatchRows:
				wantRows[i] = base.RowsIn(q.Rect)
			case engine.BatchSample:
				wantSamples[i] = base.SampleRect(q.Rect, q.N, seqRng)
			}
		}

		before := obsRPCBatch.Value()
		br := mixed.ExecuteBatch(queries)
		// 2 of 4 shards are remote, and a batch is one round-trip each.
		if rounds := obsRPCBatch.Value() - before; rounds != 2 {
			t.Fatalf("round %d: batch cost %d opBatch round-trips, want 2 (one per remote shard)", round, rounds)
		}
		batchRng := rand.New(rand.NewSource(seed))
		for i, q := range queries {
			switch q.Kind {
			case engine.BatchCount:
				if got := br.Count(i); got != wantCounts[i] {
					t.Fatalf("round %d query %d: Count = %d, want %d", round, i, got, wantCounts[i])
				}
			case engine.BatchRows:
				if got := br.Rows(i); !reflect.DeepEqual(got, wantRows[i]) {
					t.Fatalf("round %d query %d: Rows diverged (%d vs %d)", round, i, len(got), len(wantRows[i]))
				}
			case engine.BatchSample:
				if got := br.Sample(i, batchRng); !reflect.DeepEqual(got, wantSamples[i]) {
					t.Fatalf("round %d query %d: Sample diverged\n got %v\nwant %v", round, i, got, wantSamples[i])
				}
			}
		}
	}
}

// TestBatchRejectsOversizedItemCounts pins the allocation bound on both
// ends of the opBatch exchange.
func TestBatchRejectsOversizedItemCounts(t *testing.T) {
	r := &remoteShard{index: 0}
	if _, err := r.ExecuteBatch(make([]engine.ShardBatchItem, maxBatchItems+1)); err == nil {
		t.Fatal("client accepted a batch past maxBatchItems")
	}
	// A forged count well past the limit (but with a plausible payload
	// tail) must be rejected before any allocation proportional to it.
	e := &enc{}
	e.u32(uint32(maxBatchItems + 1))
	if _, err := decodeBatchItems(&dec{b: e.b}); err == nil {
		t.Fatal("decoder accepted an oversized item count")
	}
}

// FuzzBatchCodec throws arbitrary bytes at the opBatch decoders (items
// and results) and round-trips whatever valid batches the fuzzer
// reaches: decoding must never panic, must respect the item-count
// bound, and a re-encoded decode must be stable. Every batch that
// decodes is then run on a real 2-shard view (checkDecodedBatch).
func FuzzBatchCodec(f *testing.F) {
	fx := newFuzzFixture(f)
	// Seed corpus: a valid mixed batch, its matching results, and the
	// torn/oversized shapes the decoder must reject gracefully.
	items := []engine.ShardBatchItem{
		{Kind: engine.BatchCount, Rect: geom.R(10, 20, 30, 40)},
		{Kind: engine.BatchRows, Rect: geom.R(0, 100, 0, 100)},
		{Kind: engine.BatchSample, Rect: geom.R(5, 6, 7, 8)},
		{Kind: engine.BatchRowsAny, Rects: []geom.Rect{geom.R(0, 30, 0, 30), geom.R(20, 60, 10, 40)}},
	}
	eItems := &enc{}
	if err := encodeBatchItems(eItems, items); err != nil {
		f.Fatal(err)
	}
	f.Add(eItems.b)
	results := []engine.ShardBatchResult{
		{Count: engine.ShardCount{Matched: 7, Examined: 21}},
		{Rows: engine.ShardRows{Rows: []int{1, 2, 3}, Examined: 3}},
		{Sample: engine.NewShardSample(9, []int32{4, 5, 6}, 2)},
		{Rows: engine.ShardRows{Rows: []int{11, 4, 7}, Examined: 5}},
	}
	eResults := &enc{}
	encodeBatchResults(eResults, items, results)
	f.Add(eResults.b)
	f.Add(eItems.b[:len(eItems.b)/2]) // torn mid-item
	huge := &enc{}
	huge.u32(1 << 30) // oversized declared count
	f.Add(huge.b)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		decoded, err := decodeBatchItems(&dec{b: payload})
		if err == nil {
			if len(decoded) > maxBatchItems {
				t.Fatalf("decoder exceeded maxBatchItems: %d", len(decoded))
			}
			// Round-trip: encode the decode, decode again, re-encode, and
			// compare bytes (byte comparison, not struct equality, so NaN
			// rect endpoints — which the fuzzer will find — stay comparable).
			re := &enc{}
			if err := encodeBatchItems(re, decoded); err != nil {
				t.Fatalf("re-encode of decoded items failed: %v", err)
			}
			again, err := decodeBatchItems(&dec{b: re.b})
			if err != nil {
				t.Fatalf("re-decode of re-encoded items failed: %v", err)
			}
			re2 := &enc{}
			encodeBatchItems(re2, again)
			if !bytes.Equal(re.b, re2.b) {
				t.Fatal("items round-trip unstable")
			}
			// Interpret the remaining bytes as results for these items;
			// must not panic regardless of content.
			_, _ = decodeBatchResults(&dec{b: payload}, decoded)
			fx.check(t, decoded)
		}
	})
}

// fuzzFixture is a 2-shard view whose shards one worker serves over a
// unix socket, next to the unsharded view every answer must match.
type fuzzFixture struct {
	base, remote *engine.View
	srv          *Server
}

func newFuzzFixture(f *testing.F) *fuzzFixture {
	const rows, shards = 3000, 2
	base, _ := testViews(f, rows, shards)
	addr, srv := startWorker(f, rows, shards, []int{0, 1})
	c, err := Dial(addr, base.Fingerprint(), shards, Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { c.Close() })
	remote, err := engine.NewRemoteView(base.Table(), base.Attrs(), engine.ShardOptions{Shards: shards}, c.Backends())
	if err != nil {
		f.Fatal(err)
	}
	return &fuzzFixture{base: base, remote: remote, srv: srv}
}

// check runs a decoded batch as the worker's opBatch for each shard: the
// worker must reject it (opErr, never a recovered panic) exactly when an
// item is malformed for the view. An accepted batch must match the
// unsharded view item by item — counts summed and rows concatenated in
// shard order — and so must the same batch asked of the view whose
// shards are the worker's: counts, rows and seeded sample draws.
func (fx *fuzzFixture) check(t *testing.T, items []engine.ShardBatchItem) {
	dims := fx.base.Dims()
	malformed := false
	for _, it := range items {
		malformed = malformed || !wellFormedItem(it, dims)
	}
	var raw [][]engine.ShardBatchResult
	for shard := 0; shard < 2; shard++ {
		e := &enc{}
		e.u32(uint32(shard))
		if err := encodeBatchItems(e, items); err != nil {
			t.Fatal(err)
		}
		resp, err := fx.srv.handle(opBatch, e.b)
		if err != nil {
			if strings.Contains(err.Error(), "panicked") {
				t.Fatalf("shard %d: worker panicked on a decoded batch: %v", shard, err)
			}
			if !malformed {
				t.Fatalf("shard %d: worker rejected a well-formed batch: %v", shard, err)
			}
			return
		}
		results, err := decodeBatchResults(&dec{b: resp}, items)
		if err != nil {
			t.Fatalf("shard %d: worker answer does not decode: %v", shard, err)
		}
		raw = append(raw, results)
	}
	if malformed {
		t.Fatal("worker answered a batch with a malformed item")
	}
	queries := make([]engine.BatchQuery, len(items))
	for k, it := range items {
		queries[k] = engine.BatchQuery{Kind: it.Kind, Rect: it.Rect, Rects: it.Rects, N: 7}
	}
	want := fx.base.ExecuteBatch(queries)
	got := fx.remote.ExecuteBatch(queries)
	wantRng, gotRng := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(1))
	for k, q := range queries {
		switch q.Kind {
		case engine.BatchCount:
			if n := raw[0][k].Count.Matched + raw[1][k].Count.Matched; int(n) != want.Count(k) || got.Count(k) != want.Count(k) {
				t.Fatalf("item %d: count %d from the shards, %d from the view, want %d", k, n, got.Count(k), want.Count(k))
			}
		case engine.BatchRows, engine.BatchRowsAny:
			rows := append(append([]int(nil), raw[0][k].Rows.Rows...), raw[1][k].Rows.Rows...)
			if !slices.Equal(rows, want.Rows(k)) || !slices.Equal(got.Rows(k), want.Rows(k)) {
				t.Fatalf("item %d: rows differ from the unsharded view", k)
			}
		default:
			if w, g := want.Sample(k, wantRng), got.Sample(k, gotRng); !slices.Equal(g, w) {
				t.Fatalf("item %d (%+v): sample %v, unsharded %v", k, items[k], g, w)
			}
		}
	}
}

// wellFormedItem reports whether a shard of a dims-dimensional view can
// evaluate it: a rect of the view's arity or a disjunction of one or
// more such rects, with NaN-free, non-inverted intervals.
func wellFormedItem(it engine.ShardBatchItem, dims int) bool {
	valid := func(iv geom.Interval) bool { return !math.IsNaN(iv.Lo) && !math.IsNaN(iv.Hi) && iv.Lo <= iv.Hi }
	validRect := func(r geom.Rect) bool {
		return len(r) == dims && !slices.ContainsFunc(r, func(iv geom.Interval) bool { return !valid(iv) })
	}
	if it.Kind == engine.BatchRowsAny {
		return len(it.Rects) > 0 && !slices.ContainsFunc(it.Rects, func(r geom.Rect) bool { return !validRect(r) })
	}
	return validRect(it.Rect)
}
