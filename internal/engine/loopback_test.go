package engine_test

import (
	"net"
	"path/filepath"
	"testing"

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
	remote, err := engine.NewRemoteView(v.Table(), v.Attrs(), 1, engine.ShardOptions{Shards: shards}, c.Backends())
	if err != nil {
		tb.Fatal(err)
	}
	return remote
}
