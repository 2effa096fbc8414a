package service

import (
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/shardrpc"
)

// startShardWorkers serves the view over attrs of tab, sharded total
// ways, from one in-process shardrpc worker per entry of serve (each
// serving those shard indexes) on unix sockets, built independently of
// the coordinator the way cmd/aideshard builds it. It returns the
// workers' addresses.
func startShardWorkers(t *testing.T, tab *dataset.Table, attrs []string, total int, serve [][]int) []string {
	t.Helper()
	base, err := engine.NewViewWorkers(tab, attrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	all := base.WithShards(engine.ShardOptions{Shards: total}).LocalShardBackends()
	var addrs []string
	for w, indexes := range serve {
		subset := make(map[int]engine.ShardBackend, len(indexes))
		for _, i := range indexes {
			subset[i] = all[i]
		}
		srv := shardrpc.NewServer(base.Fingerprint(), total, subset)
		addr := filepath.Join(t.TempDir(), fmt.Sprintf("w%d.sock", w))
		ln, err := net.Listen("unix", addr)
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(srv.Close)
		addrs = append(addrs, addr)
	}
	return addrs
}

// TestRemoteViewRetainsOnlyCoveringIndex measures, as an exact heap
// count, what a coordinator keeps for a view whose shards all live in
// workers: with both shards claimed, RegisterTable retains the covering
// index (4 B/row/dim) and nothing more per row beyond a few bytes of
// slack — no normalized columns (the per-row accessors and the index's
// binary searches recompute values from the table), grid, sort scratch,
// shard partitions or registry entry. Keeping the normalized columns
// retained 32 bytes per row more at 4 dimensions; building the full
// sharded view first, as the coordinator once did, about 110 in all.
func TestRemoteViewRetainsOnlyCoveringIndex(t *testing.T) {
	const rows = 200_000
	attrs := []string{"rowc", "colc", "ra", "dec"}
	tab := dataset.GenerateSDSS(rows, 3)
	addrs := startShardWorkers(t, tab, attrs, 2, [][]int{{0}, {1}})

	srv := NewServer(nil)
	srv.Registry = engine.NewRegistry()
	srv.Shards = 2
	srv.ShardAddrs = addrs
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := srv.RegisterTable("sdss", tab, attrs); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	defer srv.Close()

	perRow := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / rows
	t.Logf("all-remote registration retains %d B/row", perRow)
	if limit := int64(4*len(attrs) + 8); perRow > limit {
		t.Fatalf("all-remote registration retains %d B/row, want <= %d", perRow, limit)
	}
	v := srv.View("sdss")
	if v.LocalIndex() || srv.Registry.Len() != 0 {
		t.Fatalf("all-remote view: LocalIndex %v, %d registry views", v.LocalIndex(), srv.Registry.Len())
	}
	if got := v.Count(geom.NewRect(len(attrs))); got != rows {
		t.Fatalf("full-domain count through the workers = %d, want %d", got, rows)
	}
}
