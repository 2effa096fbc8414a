package eval

import (
	"math/rand"
	"net"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/explore"
	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/shardrpc"
)

// TestGoldenBitIdentityRemoteShards re-runs the pinned golden sessions
// on two remote topologies, each over a view sharded 4 ways whose
// remote shards are served by an in-process shardrpc worker over a unix
// socket, built independently from the same inputs like cmd/aideshard:
// a mixed one (shards 1 and 3 remote, the rest in-process) and an
// all-remote one built by engine.NewRemoteView, which holds no index of
// its own. The historical bytes must survive the network hop — remote
// shards are indistinguishable from local ones on the fault-free path —
// and the all-remote view must consume a sampling rng exactly as the
// built view does.
func TestGoldenBitIdentityRemoteShards(t *testing.T) {
	const shards = 4
	sdss := dataset.GenerateSDSS(20000, 7)
	v1, err := engine.NewView(sdss, []string{"rowc", "colc"})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := GenerateTarget(v1, TargetSpec{NumAreas: 2, Size: Large}, 11)
	if err != nil {
		t.Fatal(err)
	}
	uni := dataset.GenerateUniform(10000, 2, 3)
	v2, err := engine.NewView(uni, []string{"a0", "a1"})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := GenerateTarget(v2, TargetSpec{NumAreas: 1, Size: Large}, 5)
	if err != nil {
		t.Fatal(err)
	}

	// worker starts a worker for the given shards of the view over attrs
	// of tab on a unix socket (a second view built from the same table
	// stands in for the worker's own build) and dials it.
	worker := func(t *testing.T, tab *dataset.Table, attrs []string, indexes ...int) *shardrpc.Client {
		t.Helper()
		workerBase, err := engine.NewView(tab, attrs)
		if err != nil {
			t.Fatal(err)
		}
		all := workerBase.WithShards(engine.ShardOptions{Shards: shards}).LocalShardBackends()
		subset := make(map[int]engine.ShardBackend, len(indexes))
		for _, i := range indexes {
			subset[i] = all[i]
		}
		srv := shardrpc.NewServer(workerBase.Fingerprint(), shards, subset)
		addr := filepath.Join(t.TempDir(), "w.sock")
		ln, err := net.Listen("unix", addr)
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(srv.Close)
		c, err := shardrpc.Dial(addr, engine.ViewFingerprint(tab, attrs), shards, shardrpc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	topologies := []struct {
		prefix string
		remote func(shard int) bool
		build  func(t *testing.T, base *engine.View, tab *dataset.Table, attrs []string) (*engine.View, error)
	}{
		{"", func(i int) bool { return i == 1 || i == 3 },
			func(t *testing.T, base *engine.View, tab *dataset.Table, attrs []string) (*engine.View, error) {
				c := worker(t, tab, attrs, 1, 3)
				return base.WithShards(engine.ShardOptions{Shards: shards}).WithShardBackends(c.Backends())
			}},
		{"all-remote/", func(int) bool { return true },
			func(t *testing.T, _ *engine.View, tab *dataset.Table, attrs []string) (*engine.View, error) {
				c := worker(t, tab, attrs, 0, 1, 2, 3)
				return engine.NewRemoteView(tab, attrs, 0, engine.ShardOptions{Shards: shards}, c.Backends())
			}},
	}

	cases := []struct {
		name        string
		view        *engine.View
		tab         *dataset.Table
		attrs       []string
		target      Target
		seed        int64
		discovery   explore.DiscoveryStrategy
		maxIter     int
		wantLabeled int
		wantSQL     string
	}{
		{
			name: "sdss-grid", view: v1, tab: sdss, attrs: []string{"rowc", "colc"},
			target: t1, seed: 42,
			discovery: explore.DiscoveryGrid, maxIter: 40, wantLabeled: 400,
			wantSQL: `SELECT * FROM PhotoObjAll WHERE (rowc >= 155.75593 AND rowc <= 237.073233 AND colc >= 1738.670318 AND colc <= 2048) OR (rowc >= 1112.251242 AND rowc <= 1221.56503 AND colc >= 1065.286244 AND colc <= 1239.969774);`,
		},
		{
			name: "uni-cluster", view: v2, tab: uni, attrs: []string{"a0", "a1"},
			target: t2, seed: 9,
			discovery: explore.DiscoveryClustering, maxIter: 40, wantLabeled: 400,
			wantSQL: `SELECT * FROM uniform WHERE (a0 >= 47.484197 AND a0 <= 55.360533 AND a1 >= 54.483519 AND a1 <= 63.225439);`,
		},
		{
			name: "sdss-hybrid", view: v1, tab: sdss, attrs: []string{"rowc", "colc"},
			target: t1, seed: 5,
			discovery: explore.DiscoveryHybrid, maxIter: 30, wantLabeled: 400,
			wantSQL: `SELECT * FROM PhotoObjAll WHERE (rowc >= 1109.266226 AND rowc <= 1218.146335 AND colc >= 1067.401043 AND colc <= 1239.421102) OR (rowc >= 0 AND rowc <= 277.633617 AND colc >= 1720.227043 AND colc <= 1854.032457);`,
		},
	}
	for _, topo := range topologies {
		for _, tc := range cases {
			t.Run(topo.prefix+tc.name, func(t *testing.T) {
				view, err := topo.build(t, tc.view, tc.tab, tc.attrs)
				if err != nil {
					t.Fatal(err)
				}
				opts := explore.DefaultOptions()
				opts.Seed = tc.seed
				opts.Discovery = tc.discovery
				labeled, sql, s := runGolden(t, view, tc.target, opts, tc.maxIter)
				if labeled != tc.wantLabeled {
					t.Errorf("labeled = %d, want %d", labeled, tc.wantLabeled)
				}
				if sql != tc.wantSQL {
					t.Errorf("predicted query diverged over the remote transport\n got: %s\nwant: %s", sql, tc.wantSQL)
				}
				stats := s.Stats()
				if stats.Conflicts != (explore.ConflictStats{}) {
					t.Errorf("noise-free session reported conflicts: %+v", stats.Conflicts)
				}
				if len(stats.Degradations) != 0 {
					t.Errorf("fault-free remote session reported degradations: %v", stats.Degradations)
				}
				for i, h := range view.ShardHealth() {
					if h.Remote != topo.remote(i) {
						t.Errorf("shard %d remote = %v, want %v", i, h.Remote, topo.remote(i))
					}
					if h.State != engine.ShardHealthy.String() {
						t.Errorf("shard %d state = %s after fault-free run", i, h.State)
					}
				}
				// The session keeps its rng to itself; draw over both views
				// with twin rngs instead — a covering-index rect and the
				// target's grid rects: same rows, same next Int63().
				got, want := rand.New(rand.NewSource(tc.seed)), rand.New(rand.NewSource(tc.seed))
				for _, rect := range append([]geom.Rect{geom.R(0, 100, 20, 40)}, tc.target.Areas...) {
					if !reflect.DeepEqual(view.SampleRect(rect, 25, got), tc.view.SampleRect(rect, 25, want)) {
						t.Errorf("SampleRect over %v differs from the built view", rect)
					}
				}
				if got.Int63() != want.Int63() {
					t.Error("sampling left the rng at a different position than the built view")
				}
			})
		}
	}
}
