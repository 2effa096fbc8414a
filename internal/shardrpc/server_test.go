package shardrpc

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/geom"
)

// Bounds BenchmarkWorkerBatch holds the worker's serve loop to on the
// pinned batch, frames included. The loop reuses one connection's
// buffers and reads 0 allocations and ≈ 1 B per batch; allocating the
// frames, the decoded items and rects and the results anew for each
// batch costs 45 objects and ≈ 15 KB, far past either bound.
const (
	workerBatchMaxAllocs = 1
	workerBatchMaxBytes  = 512
)

// pinnedBatch is the pinned worker batch: 30 four-dimensional counts and
// 2 samples whose rects hold no row, as one opBatch request frame to
// shard 0 (2 225 B with its header). Its answer is 516 B of payload.
func pinnedBatch(tb testing.TB) (request []byte, respPayload int) {
	rng := rand.New(rand.NewSource(3))
	items := make([]engine.ShardBatchItem, 0, 32)
	for len(items) < 30 {
		r := make(geom.Rect, 4)
		for d := range r {
			lo := rng.Float64() * 90
			r[d] = geom.Interval{Lo: lo, Hi: lo + 10}
		}
		items = append(items, engine.ShardBatchItem{Kind: engine.BatchCount, Rect: r})
	}
	for len(items) < 32 {
		lo := 99.99 - float64(len(items)-30)*0.001
		items = append(items, engine.ShardBatchItem{Kind: engine.BatchSample, Rect: geom.R(lo, 100, lo, 100, lo, 100, lo, 100)})
	}
	e := &enc{}
	e.u32(0)
	if err := encodeBatchItems(e, items); err != nil {
		tb.Fatal(err)
	}
	var frame bytes.Buffer
	if err := writeFrame(&frame, opBatch, e.b); err != nil {
		tb.Fatal(err)
	}
	return frame.Bytes(), 4 + 30*16 + 2*16
}

// BenchmarkWorkerBatch runs the worker's serve loop over net.Pipe on the
// pinned 32-item batch and reports what one served batch allocates, the
// request and response frames included. It fails above the pinned
// allocs/batch and B/batch bounds, so CI's one-iteration benchmark pass
// catches a per-batch allocation creeping back into the serving path.
func BenchmarkWorkerBatch(b *testing.B) {
	tab := dataset.GenerateSDSS(20000, 5)
	view, err := engine.NewViewWorkers(tab, []string{"rowc", "colc", "ra", "dec"}, 1)
	if err != nil {
		b.Fatal(err)
	}
	backends := view.WithShards(engine.ShardOptions{Shards: 2}).LocalShardBackends()
	srv := NewServer(view.Fingerprint(), 2, map[int]engine.ShardBackend{0: backends[0]})
	cli, worker := net.Pipe()
	done := make(chan struct{})
	go func() {
		srv.serveConn(worker)
		close(done)
	}()
	defer func() {
		cli.Close()
		<-done
	}()

	request, payload := pinnedBatch(b)
	resp := make([]byte, headerSize+1+payload)
	serve := func() {
		if _, err := cli.Write(request); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(cli, resp); err != nil {
			b.Fatal(err)
		}
	}
	serve()
	if n := int(resp[0]) | int(resp[1])<<8 | int(resp[2])<<16 | int(resp[3])<<24; resp[8] != opOK || n != 1+payload {
		b.Fatalf("pinned batch answered op %d with a %d-byte body, want op %d and %d bytes", resp[8], n, opOK, 1+payload)
	}
	for i := 0; i < 16; i++ { // warm the connection's buffers and the engine's pools
		serve()
	}

	// The bound is read over a fixed run, not b.N: at -benchtime 1x one
	// batch is too few to average out a stray runtime allocation.
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.StopTimer()
	b.ReportMetric(allocs, "allocs/batch")
	b.ReportMetric(bytes, "B/batch")
	if allocs > workerBatchMaxAllocs || bytes > workerBatchMaxBytes {
		b.Fatalf("a served batch allocates %.1f objects, %.0f B; want <= %d and <= %d B", allocs, bytes, workerBatchMaxAllocs, workerBatchMaxBytes)
	}
}

// TestConnStateDropsBigBuffers serves one connection's scratch a batch
// whose frame, items and results each outgrow maxKeptBytes, then a small
// one: after the big request every grown buffer is dropped, and the
// small one's answer is the same as from fresh scratch.
func TestConnStateDropsBigBuffers(t *testing.T) {
	_, sharded := testViews(t, 3000, 2)
	srv := NewServer(sharded.Fingerprint(), 2, map[int]engine.ShardBackend{0: sharded.LocalShardBackends()[0]})
	batch := func(n int) []byte {
		items := make([]engine.ShardBatchItem, n)
		for k := range items {
			items[k] = engine.ShardBatchItem{Kind: engine.BatchCount, Rect: geom.R(0, 100, 0, float64(k%100))}
		}
		e := &enc{}
		e.u32(0)
		if err := encodeBatchItems(e, items); err != nil {
			t.Fatal(err)
		}
		return e.b
	}
	c := new(connState)
	var frame bytes.Buffer
	if err := writeFrame(&frame, opBatch, batch(maxBatchItems)); err != nil {
		t.Fatal(err)
	}
	op, payload, buf, err := readFrameInto(&frame, c.frame)
	c.frame = buf
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.handle(c, op, payload); err != nil {
		t.Fatal(err)
	}
	if cap(c.frame) <= maxKeptBytes || cap(c.items.items) == 0 || cap(c.results) == 0 || cap(c.out.b) <= maxKeptBytes {
		t.Fatalf("a %d-item batch grew the frame to %d B and the response to %d B, want both past %d", maxBatchItems, cap(c.frame), cap(c.out.b), maxKeptBytes)
	}
	c.trim()
	if c.frame != nil || c.items.items != nil || c.items.ivs != nil || c.results != nil || c.out.b != nil {
		t.Fatalf("after trim the connection keeps frame %d B, items %d, intervals %d, results %d, response %d B",
			cap(c.frame), cap(c.items.items), cap(c.items.ivs), cap(c.results), cap(c.out.b))
	}
	small := batch(3)
	got, err := srv.handle(c, opBatch, small)
	if err != nil {
		t.Fatal(err)
	}
	want, err := srv.handle(new(connState), opBatch, small)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("a trimmed connection answered a small batch differently from a fresh one")
	}
}
