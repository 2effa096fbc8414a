// Package shardrpc is the remote-shard transport: it ships one shard's
// engine.ShardBackend batches over a length-prefixed, CRC-framed binary
// protocol on TCP or unix sockets, so shards can run in separate worker
// processes (cmd/aideshard) with real fault isolation. The protocol has
// two requests: a hello that pins the deployment, and a batch that
// carries every sub-query one shard answers in a scatter round. The
// single-item backend methods are one-item batches (engine.BatchAdapter).
//
// The frame layout reuses the durable WAL's framing discipline:
//
//	[u32 length][u32 crc32-IEEE][u8 op][payload]
//
// little-endian, length = 1 + len(payload), CRC over op byte plus
// payload. A torn or corrupted frame fails the CRC (or the length
// bound) and poisons the connection — it is closed, never resynced —
// which the client reports as a failed exchange.
//
// Results are plain data and the coordinator keeps randomness, caching
// and gather order, so a remote shard is bit-identical to a local one;
// the engine's scatter layer cannot tell them apart except by failure
// mode. The client neither retries nor keeps health state: each failed
// exchange is one failed engine attempt, and the engine's shard
// supervisor alone quarantines and probes, degrading to the named
// shard_partial:n/N contract instead of wrong answers.
package shardrpc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/geom"
)

// Protocol ops. A batch request carries the shard index first; every
// exchange is one request frame, one response frame.
const (
	opHello = byte(1) // fingerprint + total shard count -> served shard list
	opBatch = byte(8) // N length-prefixed sub-queries -> N results, one round-trip

	opOK  = byte(128) // success; payload is op-specific
	opErr = byte(129) // failure; payload is the error string
)

// retiredOps names the per-operation requests of protocol versions 1–3,
// each now a one-item batch. A worker answers one with an opErr naming
// it and keeps the connection.
var retiredOps = map[byte]string{
	2: "ping", 3: "count", 4: "rows_in", 5: "rows_in_any", 6: "sample_grid", 7: "sorted_slice",
}

// headerSize is the fixed frame prefix: u32 length + u32 crc.
const headerSize = 8

// maxFrameSize bounds a frame's length field — same ceiling as the
// durable WAL; anything larger is corruption, not data.
const maxFrameSize = 64 << 20

// protocolVersion is pinned inside the hello exchange; a mismatch is a
// deploy error and fails the handshake. Version 2 added the RowsAny
// batch item, which a version-1 worker would misread; version 3 retired
// batch item kind 3, the covering-index slice, which a version-2
// coordinator would still send; version 4 retired ops 2–7 (retiredOps),
// which a version-3 coordinator would still send.
const protocolVersion = 4

// crcOf is the frame checksum: crc32-IEEE over op byte + payload.
func crcOf(body []byte) uint32 { return crc32.ChecksumIEEE(body) }

// writeFrame writes one [len][crc][op][payload] frame.
func writeFrame(w io.Writer, op byte, payload []byte) error {
	e := &enc{b: make([]byte, headerSize+1, headerSize+1+len(payload))}
	e.b = append(e.b, payload...)
	_, err := w.Write(e.seal(op))
	return err
}

// readFrame reads one frame, verifying the length bound and CRC. Any
// error poisons the connection: the caller must close it.
func readFrame(r io.Reader) (op byte, payload []byte, err error) {
	op, payload, _, err = readFrameInto(r, nil)
	return op, payload, err
}

// readFrameInto is readFrame reading the frame into buf's storage,
// grown when the frame does not fit: it returns the payload, a
// subslice of the returned buffer, valid until that buffer's next use.
func readFrameInto(r io.Reader, buf []byte) (op byte, payload, grown []byte, err error) {
	buf = slices.Grow(buf[:0], headerSize)[:headerSize]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, buf, err
	}
	length := binary.LittleEndian.Uint32(buf[0:4])
	crc := binary.LittleEndian.Uint32(buf[4:8])
	if length == 0 || length > maxFrameSize {
		return 0, nil, buf, fmt.Errorf("shardrpc: frame length %d out of range", length)
	}
	body := slices.Grow(buf[:0], int(length))[:length]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, body, err
	}
	if got := crc32.ChecksumIEEE(body); got != crc {
		return 0, nil, body, fmt.Errorf("shardrpc: frame CRC mismatch (corrupt or torn frame)")
	}
	return body[0], body[1:], body, nil
}

// enc is a little append-based encoder for frame payloads. One that
// builds a whole frame starts with begin, which reserves the header and
// op byte, and ends with seal, which fills them in: the payload is
// encoded in place, never copied into a frame.
type enc struct {
	b []byte
	// full and partial are sample's scratch for one piece's blocks,
	// reused by every sample one encoder writes.
	full    [][]int32
	partial []int32
}

// begin empties e down to a reserved frame header and op byte.
func (e *enc) begin() { e.b = append(e.b[:0], make([]byte, headerSize+1)...) }

// seal completes the frame begin started, for op, and returns it:
// length = 1 + payload, CRC over op byte plus payload.
func (e *enc) seal(op byte) []byte {
	e.b[headerSize] = op
	binary.LittleEndian.PutUint32(e.b[0:4], uint32(len(e.b)-headerSize))
	binary.LittleEndian.PutUint32(e.b[4:8], crc32.ChecksumIEEE(e.b[headerSize:]))
	return e.b
}

func (e *enc) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

func (e *enc) rect(r geom.Rect) {
	e.u32(uint32(len(r)))
	for _, iv := range r {
		e.f64(iv.Lo)
		e.f64(iv.Hi)
	}
}

// sample encodes one shard's sample piece: examined, the covered-cell
// row blocks, then the boundary-cell survivors. A lazy piece is
// materialized here — the wire carries rows.
func (e *enc) sample(s engine.ShardSample) {
	full, partial := s.Blocks(e.full[:0], e.partial[:0])
	e.full, e.partial = full, partial
	e.i64(s.Examined)
	e.u32(uint32(len(full)))
	for _, blk := range full {
		e.block32(blk)
	}
	e.block32(partial)
}

// rows32 encodes row ids as int32: the engine's grid stores rows as
// int32, so every id a shard can produce fits.
func (e *enc) rows32(rows []int) {
	e.u32(uint32(len(rows)))
	for _, r := range rows {
		e.u32(uint32(int32(r)))
	}
}

func (e *enc) block32(rows []int32) {
	e.u32(uint32(len(rows)))
	for _, r := range rows {
		e.u32(uint32(r))
	}
}

// dec is the matching consuming decoder; the first decode error sticks
// and every later read returns zero values.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("shardrpc: truncated payload")
	}
}

func (d *dec) u8() byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) str() string {
	n := int(d.u32())
	if d.err != nil || n < 0 || len(d.b) < n {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// count bounds a declared element count by the bytes actually left
// (elemSize each), so a corrupt length cannot drive a huge allocation.
func (d *dec) count(elemSize int) int {
	n := int(d.u32())
	if d.err != nil {
		return 0
	}
	if n < 0 || n*elemSize > len(d.b) {
		d.fail()
		return 0
	}
	return n
}

// rect decodes one rect into the flat interval store ivs and returns
// it, cut from the grown store at its own length and capacity.
func (d *dec) rect(ivs []geom.Interval) (geom.Rect, []geom.Interval) {
	n := d.count(16)
	if n == 0 {
		return nil, ivs
	}
	at := len(ivs)
	for i := 0; i < n; i++ {
		ivs = append(ivs, geom.Interval{Lo: d.f64(), Hi: d.f64()})
	}
	return geom.Rect(ivs[at:len(ivs):len(ivs)]), ivs
}

func (d *dec) rows32() []int {
	n := d.count(4)
	if n == 0 {
		return nil
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = int(int32(d.u32()))
	}
	return rows
}

// sample decodes enc.sample's frame into one flat row array at the
// wire's int32 width — the blocks back to back, then the survivors —
// sized by a pass over the length prefixes before anything is copied.
func (d *dec) sample() engine.ShardSample {
	examined := d.i64()
	nf := d.count(4)
	if d.err != nil {
		return engine.ShardSample{}
	}
	total, at := 0, 0
	for i := 0; i <= nf; i++ { // nf blocks, then the survivor list
		if len(d.b)-at < 4 {
			d.fail()
			return engine.ShardSample{}
		}
		n := int(binary.LittleEndian.Uint32(d.b[at:]))
		if n > (len(d.b)-at-4)/4 {
			d.fail()
			return engine.ShardSample{}
		}
		total += n
		at += 4 + 4*n
	}
	rows := make([]int32, 0, total)
	fullTotal := 0
	for i := 0; i <= nf; i++ {
		if i == nf {
			fullTotal = len(rows)
		}
		for n := int(d.u32()); n > 0; n-- {
			rows = append(rows, int32(d.u32()))
		}
	}
	return engine.NewShardSample(examined, rows, fullTotal)
}

// ---- opBatch codec -------------------------------------------------
//
// A batch request is the shard index followed by N length-prefixed
// sub-queries; the response is N results in the same order. The item
// count is bounded by maxBatchItems on both ends — independent of the
// frame-size ceiling — so a corrupt or hostile count can neither drive
// a huge allocation nor smuggle an unbounded work list to a worker.

// maxBatchItems bounds the sub-queries of one opBatch exchange. A
// session iteration batches at most a few dozen requests; 4096 leaves
// room for far coarser callers while keeping the decode allocation
// proportional to real payloads.
const maxBatchItems = 4096

// Wire kinds of one batch sub-query. The first three mirror their
// engine.BatchKind values. Kind 3, the covering-index slice of versions
// 1–2, is retired: it decodes as an unknown kind.
const (
	batchWireCount   = byte(0)
	batchWireRows    = byte(1)
	batchWireSample  = byte(2)
	batchWireRowsAny = byte(4)
)

func (e *enc) u8(v byte) { e.b = append(e.b, v) }

// encodeBatchItems appends N sub-queries: u32 count, then per item a
// kind byte followed by the rect (single-rect kinds) or u32 count +
// rects (RowsAny). A kind it cannot name is an error, never another
// kind.
func encodeBatchItems(e *enc, items []engine.ShardBatchItem) error {
	e.u32(uint32(len(items)))
	for _, it := range items {
		switch {
		case it.Kind == engine.BatchRowsAny:
			e.u8(batchWireRowsAny)
			e.u32(uint32(len(it.Rects)))
			for _, r := range it.Rects {
				e.rect(r)
			}
		case it.Kind == engine.BatchCount, it.Kind == engine.BatchRows, it.Kind == engine.BatchSample:
			e.u8(byte(it.Kind))
			e.rect(it.Rect)
		default:
			return fmt.Errorf("shardrpc: batch item kind %d has no wire form", it.Kind)
		}
	}
	return nil
}

// itemStore holds one decoded batch: its items, the one flat interval
// store every rect of theirs is cut from, and the flat store RowsAny
// items' rect lists are cut from. A store decodes batch after batch
// into the same storage, so each decode overwrites what the previous
// one returned.
type itemStore struct {
	items []engine.ShardBatchItem
	ivs   []geom.Interval
	rects []geom.Rect
}

// decode decodes one batch into the store and returns its items: the
// bounded inverse of encodeBatchItems.
func (s *itemStore) decode(d *dec) ([]engine.ShardBatchItem, error) {
	n := int(d.u32())
	if d.err != nil {
		return nil, d.err
	}
	if n < 0 || n > maxBatchItems {
		return nil, fmt.Errorf("shardrpc: batch item count %d out of range [0,%d]", n, maxBatchItems)
	}
	items, ivs, rects := slices.Grow(s.items[:0], n), s.ivs[:0], s.rects[:0]
	for i := 0; i < n; i++ {
		switch kind := d.u8(); kind {
		case batchWireCount, batchWireRows, batchWireSample:
			var r geom.Rect
			r, ivs = d.rect(ivs)
			items = append(items, engine.ShardBatchItem{Kind: engine.BatchKind(kind), Rect: r})
		case batchWireRowsAny:
			// Bounded like the item count: each rect costs at least its
			// 4-byte arity, and no more than maxBatchItems ride one item.
			if m := d.count(4); m <= maxBatchItems {
				at := len(rects)
				for r := 0; r < m; r++ {
					var rect geom.Rect
					rect, ivs = d.rect(ivs)
					rects = append(rects, rect)
				}
				items = append(items, engine.ShardBatchItem{Kind: engine.BatchRowsAny, Rects: rects[at:len(rects):len(rects)]})
			} else if d.err == nil {
				d.err = fmt.Errorf("shardrpc: batch item of %d rects exceeds %d", m, maxBatchItems)
			}
		default:
			if d.err == nil {
				d.err = fmt.Errorf("shardrpc: batch item kind %d unknown", kind)
			}
		}
		if d.err != nil {
			return nil, d.err
		}
	}
	s.items, s.ivs, s.rects = items, ivs, rects
	return items, nil
}

// encodeBatchResults appends N results, each shaped by its item's kind.
func encodeBatchResults(e *enc, items []engine.ShardBatchItem, results []engine.ShardBatchResult) {
	e.u32(uint32(len(results)))
	for k, r := range results {
		switch {
		case items[k].Kind == engine.BatchCount:
			e.i64(r.Count.Matched)
			e.i64(r.Count.Examined)
		case items[k].Kind == engine.BatchRows, items[k].Kind == engine.BatchRowsAny:
			e.i64(r.Rows.Examined)
			e.rows32(r.Rows.Rows)
		default:
			e.sample(r.Sample)
		}
	}
}

// decodeBatchResults is the bounded inverse of encodeBatchResults; the
// request's items supply the per-result shapes.
func decodeBatchResults(d *dec, items []engine.ShardBatchItem) ([]engine.ShardBatchResult, error) {
	n := int(d.u32())
	if d.err != nil {
		return nil, d.err
	}
	if n != len(items) {
		return nil, fmt.Errorf("shardrpc: batch response carries %d results for %d items", n, len(items))
	}
	out := make([]engine.ShardBatchResult, n)
	for k := range out {
		switch {
		case items[k].Kind == engine.BatchCount:
			out[k].Count = engine.ShardCount{Matched: d.i64(), Examined: d.i64()}
		case items[k].Kind == engine.BatchRows, items[k].Kind == engine.BatchRowsAny:
			out[k].Rows = engine.ShardRows{Examined: d.i64(), Rows: d.rows32()}
		default:
			out[k].Sample = d.sample()
		}
		if d.err != nil {
			return nil, d.err
		}
	}
	return out, nil
}
