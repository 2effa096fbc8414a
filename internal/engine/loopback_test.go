package engine_test

import (
	"math/rand"
	"net"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/shardrpc"
)

func init() { engine.LoopbackRemoteView = loopbackRemoteView }

// loopbackRemoteView shards v, serves every shard from a shardrpc worker
// on a unix socket, and returns the NewRemoteView a coordinator builds
// over it — the whole wire path, in process.
func loopbackRemoteView(tb testing.TB, v *engine.View, shards int) *engine.View {
	tb.Helper()
	local := v.WithShards(engine.ShardOptions{Shards: shards}).LocalShardBackends()
	served := make(map[int]engine.ShardBackend, shards)
	for i, b := range local {
		served[i] = b
	}
	srv := shardrpc.NewServer(v.Fingerprint(), shards, served)
	addr := filepath.Join(tb.TempDir(), "shard.sock")
	ln, err := net.Listen("unix", addr)
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(ln)
	tb.Cleanup(srv.Close)
	c, err := shardrpc.Dial(addr, v.Fingerprint(), shards, shardrpc.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	remote, err := engine.NewRemoteView(v.Table(), v.Attrs(), engine.ShardOptions{Shards: shards}, c.Backends())
	if err != nil {
		tb.Fatal(err)
	}
	return remote
}

// TestServedShardsOverWire is TestServedShardsMatchFullView's shard
// check over the wire: shards 0 and 2 of 3, built by NewServedShards and
// served by a loopback shardrpc worker, answer every batch item kind as
// the fully built view's shards do.
func TestServedShardsOverWire(t *testing.T) {
	tab := dataset.GenerateSDSS(20_000, 5)
	attrs := []string{"rowc", "colc", "ra", "dec"}
	served, fp, err := engine.NewServedShards(tab, attrs, 3, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := shardrpc.NewServer(fp, 3, served)
	addr := filepath.Join(t.TempDir(), "served.sock")
	ln, err := net.Listen("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	c, err := shardrpc.Dial(addr, fp, 3, shardrpc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base, err := engine.NewViewWorkers(tab, attrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	full := base.WithShards(engine.ShardOptions{Shards: 3}).LocalShardBackends()
	batch := engine.ServedBatch(len(attrs), rand.New(rand.NewSource(3)))
	remote := c.Backends()
	if len(remote) != 2 {
		t.Fatalf("worker announced %d shards, want 2", len(remote))
	}
	for i, b := range remote {
		if got, want := engine.ShardAnswers(t, b, batch), engine.ShardAnswers(t, full[i], batch); !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d over the wire answers differently from the full view's shard", i)
		}
	}
}
