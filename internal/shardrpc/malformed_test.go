package shardrpc

import (
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/geom"
)

// TestWorkerRejectsMalformedBatch sends, raw and after a valid hello,
// every well-framed, CRC-valid request a worker's shard cannot evaluate
// — a rect of the wrong arity, a NaN or inverted bound, a covering-index
// slice of dimension 99, a disjunction of no rects or of a malformed
// one, an item kind the protocol does not define — through opBatch and
// the single ops. Each must be answered with opErr from validation (not
// a recovered panic), on the same connection, which then still answers a
// well-formed batch bit-identically to the local shard. The local shard
// itself must refuse the malformed items, and the encoder must refuse to
// send a kind it cannot name rather than send it as another kind.
func TestWorkerRejectsMalformedBatch(t *testing.T) {
	const shard = 1
	_, sharded := testViews(t, 4000, 2)
	addr, _ := startWorker(t, 4000, 2, []int{shard})
	conn, err := net.Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	exchange := func(op byte, payload []byte) (byte, []byte) {
		t.Helper()
		if err := writeFrame(conn, op, payload); err != nil {
			t.Fatal(err)
		}
		rop, resp, err := readFrame(conn)
		if err != nil {
			t.Fatalf("op %d: the worker dropped the connection: %v", op, err)
		}
		return rop, resp
	}
	hello := &enc{}
	hello.u32(protocolVersion)
	hello.str(sharded.Fingerprint())
	hello.u32(2)
	if rop, _ := exchange(opHello, hello.b); rop != opOK {
		t.Fatalf("hello answered op %d", rop)
	}

	nan := math.NaN()
	short := geom.Rect{{Lo: 0, Hi: 100}}
	nanRect := geom.R(0, nan, 0, 100)
	inverted := geom.R(60, 40, 0, 100)
	batch := func(items ...engine.ShardBatchItem) []byte {
		e := &enc{}
		e.u32(shard)
		if err := encodeBatchItems(e, items); err != nil {
			t.Fatal(err)
		}
		return e.b
	}
	unknownKind := &enc{}
	unknownKind.u32(shard)
	unknownKind.u32(1)
	unknownKind.u8(9)
	unknownKind.rect(geom.R(0, 100, 0, 100))
	single := func(rects ...geom.Rect) []byte {
		e := &enc{}
		e.u32(shard)
		for _, r := range rects {
			e.rect(r)
		}
		return e.b
	}
	anyOf := func(rects ...geom.Rect) []byte {
		e := &enc{}
		e.u32(shard)
		e.u32(uint32(len(rects)))
		for _, r := range rects {
			e.rect(r)
		}
		return e.b
	}
	sorted := func(dim uint32, lo, hi float64) []byte {
		e := &enc{}
		e.u32(shard)
		e.u32(dim)
		e.f64(lo)
		e.f64(hi)
		return e.b
	}
	full := geom.R(0, 100, 0, 100)
	cases := []struct {
		name    string
		op      byte
		payload []byte
	}{
		{"batch wrong-arity count", opBatch, batch(engine.ShardBatchItem{Kind: engine.BatchCount, Rect: short})},
		{"batch NaN rows", opBatch, batch(engine.ShardBatchItem{Kind: engine.BatchRows, Rect: nanRect})},
		{"batch inverted sample", opBatch, batch(engine.ShardBatchItem{Kind: engine.BatchSample, Rect: inverted})},
		{"batch sorted dim 99", opBatch, batch(engine.ShardBatchItem{Kind: engine.BatchSample, Sorted: true, Dim: 99, Iv: geom.Interval{Lo: 0, Hi: 100}})},
		{"batch sorted NaN", opBatch, batch(engine.ShardBatchItem{Kind: engine.BatchSample, Sorted: true, Dim: 0, Iv: geom.Interval{Lo: nan, Hi: 100}})},
		{"batch valid then malformed", opBatch, batch(engine.ShardBatchItem{Kind: engine.BatchCount, Rect: full}, engine.ShardBatchItem{Kind: engine.BatchCount, Rect: short})},
		{"batch rows_any no rects", opBatch, batch(engine.ShardBatchItem{Kind: engine.BatchRowsAny})},
		{"batch rows_any one wrong arity", opBatch, batch(engine.ShardBatchItem{Kind: engine.BatchRowsAny, Rects: []geom.Rect{full, short}})},
		{"batch rows_any NaN", opBatch, batch(engine.ShardBatchItem{Kind: engine.BatchRowsAny, Rects: []geom.Rect{nanRect}})},
		{"batch unknown kind", opBatch, unknownKind.b},
		{"count wrong arity", opCount, single(short)},
		{"rows_in NaN", opRowsIn, single(nanRect)},
		{"rows_in_any one wrong arity", opRowsInAny, anyOf(full, short)},
		{"sample_grid NaN", opSampleGrid, single(nanRect)},
		{"sorted_slice dim 99", opSortedSlice, sorted(99, 0, 100)},
	}
	for _, tc := range cases {
		rop, resp := exchange(tc.op, tc.payload)
		if rop != opErr {
			t.Fatalf("%s: answered op %d, want opErr", tc.name, rop)
		}
		d := &dec{b: resp}
		if msg := d.str(); strings.Contains(msg, "panic") {
			t.Fatalf("%s: rejected by a recovered panic, not by validation: %s", tc.name, msg)
		}
	}

	local := sharded.LocalShardBackends()[shard]
	for _, it := range []engine.ShardBatchItem{
		{Kind: engine.BatchRowsAny},
		{Kind: engine.BatchRowsAny, Rects: []geom.Rect{full, short}},
		{Kind: engine.BatchRowsAny, Rects: []geom.Rect{inverted}},
		{Kind: engine.BatchRowsAny + 1, Rect: full},
	} {
		if _, err := local.ExecuteBatch([]engine.ShardBatchItem{it}); err == nil {
			t.Fatalf("local shard answered the malformed item %+v", it)
		}
	}
	if err := encodeBatchItems(&enc{}, []engine.ShardBatchItem{{Kind: engine.BatchRowsAny + 1, Rect: full}}); err == nil {
		t.Fatal("encoder sent an item kind it has no wire form for")
	}

	items := []engine.ShardBatchItem{
		{Kind: engine.BatchCount, Rect: geom.R(10, 60, 20, 80)},
		{Kind: engine.BatchRows, Rect: geom.R(30, 50, 30, 50)},
		{Kind: engine.BatchSample, Sorted: true, Dim: 1, Iv: geom.Interval{Lo: 20, Hi: 40}},
		{Kind: engine.BatchRowsAny, Rects: []geom.Rect{geom.R(50, 100, 0, 60), geom.R(80, 100, 30, 70)}},
	}
	rop, resp := exchange(opBatch, batch(items...))
	if rop != opOK {
		t.Fatalf("well-formed batch after the malformed ones answered op %d: %s", rop, (&dec{b: resp}).str())
	}
	got, err := decodeBatchResults(&dec{b: resp}, items)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.ExecuteBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Count != want[0].Count || !reflect.DeepEqual(got[1].Rows, want[1].Rows) || !reflect.DeepEqual(got[2].Sorted, want[2].Sorted) ||
		len(want[3].Rows.Rows) == 0 || !reflect.DeepEqual(got[3].Rows, want[3].Rows) {
		t.Fatal("well-formed batch after the malformed ones differs from the local shard")
	}
}
