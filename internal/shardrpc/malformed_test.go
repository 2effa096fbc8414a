package shardrpc

import (
	"fmt"
	"math"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/geom"
)

// TestWorkerRejectsMalformedBatch sends, raw and after a valid hello,
// every well-framed, CRC-valid request a worker's shard cannot evaluate
// — a rect of the wrong arity, a NaN or inverted bound, a disjunction of
// no rects or of a malformed one, an item kind the protocol does not
// define or has retired — through opBatch. Each must be answered with
// opErr from validation (not a recovered panic), on the same connection,
// which then still answers a well-formed batch bit-identically to the
// local shard. The local shard itself must refuse the malformed items,
// and the encoder must refuse to send a kind it cannot name rather than
// send it as another kind.
func TestWorkerRejectsMalformedBatch(t *testing.T) {
	const shard = 1
	_, sharded := testViews(t, 4000, 2)
	addr, _ := startWorker(t, 4000, 2, []int{shard})
	exchange := rawExchange(t, addr, sharded.Fingerprint(), 2)

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
	// Kind 3 was the covering-index slice (u32 dim, interval) until
	// protocol version 3.
	retiredKind := &enc{}
	retiredKind.u32(shard)
	retiredKind.u32(1)
	retiredKind.u8(3)
	retiredKind.u32(0)
	retiredKind.f64(0)
	retiredKind.f64(100)
	full := geom.R(0, 100, 0, 100)
	cases := []struct {
		name    string
		op      byte
		payload []byte
	}{
		{"batch wrong-arity count", opBatch, batch(engine.ShardBatchItem{Kind: engine.BatchCount, Rect: short})},
		{"batch NaN rows", opBatch, batch(engine.ShardBatchItem{Kind: engine.BatchRows, Rect: nanRect})},
		{"batch inverted sample", opBatch, batch(engine.ShardBatchItem{Kind: engine.BatchSample, Rect: inverted})},
		{"batch retired kind 3", opBatch, retiredKind.b},
		{"batch valid then malformed", opBatch, batch(engine.ShardBatchItem{Kind: engine.BatchCount, Rect: full}, engine.ShardBatchItem{Kind: engine.BatchCount, Rect: short})},
		{"batch rows_any no rects", opBatch, batch(engine.ShardBatchItem{Kind: engine.BatchRowsAny})},
		{"batch rows_any one wrong arity", opBatch, batch(engine.ShardBatchItem{Kind: engine.BatchRowsAny, Rects: []geom.Rect{full, short}})},
		{"batch rows_any NaN", opBatch, batch(engine.ShardBatchItem{Kind: engine.BatchRowsAny, Rects: []geom.Rect{nanRect}})},
		{"batch unknown kind", opBatch, unknownKind.b},
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
		{Kind: engine.BatchSample, Rect: geom.R(20, 40, 0, 100)},
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
	gotFull, gotPart := got[2].Sample.Blocks(nil, nil)
	wantFull, wantPart := want[2].Sample.Blocks(nil, nil)
	if got[0].Count != want[0].Count || !reflect.DeepEqual(got[1].Rows, want[1].Rows) ||
		!reflect.DeepEqual(slices.Concat(append(gotFull, gotPart)...), slices.Concat(append(wantFull, wantPart)...)) ||
		len(want[3].Rows.Rows) == 0 || !reflect.DeepEqual(got[3].Rows, want[3].Rows) {
		t.Fatal("well-formed batch after the malformed ones differs from the local shard")
	}
}

// rawExchange dials the worker at addr, sends a valid hello for the
// view fp sharded shards ways and returns a one-frame-each-way exchange
// on that connection, which fails the test if the worker drops it.
func rawExchange(t *testing.T, addr, fp string, shards int) func(op byte, payload []byte) (byte, []byte) {
	t.Helper()
	conn, err := net.Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
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
	hello.str(fp)
	hello.u32(uint32(shards))
	if rop, _ := exchange(opHello, hello.b); rop != opOK {
		t.Fatalf("hello answered op %d", rop)
	}
	return exchange
}

// TestRetiredOpsRefused sends each per-operation request protocol
// version 4 retired, well-formed as a version-3 coordinator framed it.
// Each must be answered with an opErr naming the op, on a connection
// that then still answers a batch exactly as the local shard does.
func TestRetiredOpsRefused(t *testing.T) {
	const shard = 1
	_, sharded := testViews(t, 2000, 2)
	addr, _ := startWorker(t, 2000, 2, []int{shard})
	exchange := rawExchange(t, addr, sharded.Fingerprint(), 2)

	full := geom.R(0, 100, 0, 100)
	payload := func(fill func(e *enc)) []byte {
		e := &enc{}
		e.u32(shard)
		fill(e)
		return e.b
	}
	oneRect := payload(func(e *enc) { e.rect(full) })
	cases := []struct {
		op      byte
		name    string
		payload []byte
	}{
		{2, "ping", payload(func(*enc) {})},
		{3, "count", oneRect},
		{4, "rows_in", oneRect},
		{5, "rows_in_any", payload(func(e *enc) { e.u32(1); e.rect(full) })},
		{6, "sample_grid", oneRect},
		{7, "sorted_slice", payload(func(e *enc) { e.u32(0); e.f64(0); e.f64(100) })},
	}
	for _, tc := range cases {
		rop, resp := exchange(tc.op, tc.payload)
		want := fmt.Sprintf("op %d (%s) retired", tc.op, tc.name)
		if msg := (&dec{b: resp}).str(); rop != opErr || !strings.Contains(msg, want) {
			t.Fatalf("op %d answered op %d %q, want opErr naming %q", tc.op, rop, msg, want)
		}
	}

	items := []engine.ShardBatchItem{{Kind: engine.BatchCount, Rect: full}, {Kind: engine.BatchRows, Rect: geom.R(30, 50, 30, 50)}}
	batch := payload(func(e *enc) {
		if err := encodeBatchItems(e, items); err != nil {
			t.Fatal(err)
		}
	})
	rop, resp := exchange(opBatch, batch)
	if rop != opOK {
		t.Fatalf("batch after the retired ops answered op %d: %s", rop, (&dec{b: resp}).str())
	}
	got, err := decodeBatchResults(&dec{b: resp}, items)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sharded.LocalShardBackends()[shard].ExecuteBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batch after the retired ops = %+v, want %+v", got, want)
	}
}
