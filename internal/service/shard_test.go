package service

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/durable"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/faultinject"
	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/obs"
)

// shardedServer registers one uniform table split into 4 supervised
// shards and returns the server plus its registered view.
func shardedServer(t *testing.T) (*Server, *engine.View) {
	t.Helper()
	srv := NewServer(nil)
	srv.Registry = engine.NewRegistry()
	srv.Shards = 4
	mon, err := obs.NewSLOMonitor(obs.DefaultSLOConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.SLO = mon
	tab := dataset.GenerateUniform(10_000, 2, 1)
	if err := srv.RegisterTable("uniform", tab, []string{"a0", "a1"}, 1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, srv.views["uniform"]
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

// TestShardHealthEndpoints pins the degraded-but-serving contract on
// /healthz and /v1/slo: both report per-shard supervisor state, and a
// quarantined shard never flips liveness or slo_healthy.
func TestShardHealthEndpoints(t *testing.T) {
	srv, view := shardedServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	type sloResp struct {
		Healthy bool              `json:"healthy"`
		Shards  []ViewShardHealth `json:"shards"`
	}

	// Healthy state: all 4 shards healthy, nothing degraded.
	var hz map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if hz["status"] != "ok" || hz["slo_healthy"] != true {
		t.Fatalf("healthy server reported %v", hz)
	}
	if _, degraded := hz["shards_degraded"]; degraded {
		t.Fatal("healthy shards flagged degraded")
	}
	var slo sloResp
	getJSON(t, ts.URL+"/v1/slo", &slo)
	if !slo.Healthy || len(slo.Shards) != 1 || slo.Shards[0].Healthy != 4 {
		t.Fatalf("healthy /v1/slo = %+v", slo)
	}
	for _, st := range slo.Shards[0].States {
		if st.State != "healthy" {
			t.Fatalf("shard %d reported %q", st.Index, st.State)
		}
	}

	// Quarantine shard 1: two consecutive failed ops against the
	// registered view.
	faultinject.Activate(faultinject.New(faultinject.Config{
		Seed: 1, ErrorRate: 1,
		Points: []string{faultinject.PointAt(engine.FaultShardScan, 1)},
	}))
	defer faultinject.Deactivate()
	full := geom.R(0, 100, 0, 100)
	view.Count(full)
	view.Count(full)

	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("degraded healthz = %d, liveness must not flip", code)
	}
	if hz["status"] != "ok" || hz["slo_healthy"] != true {
		t.Fatalf("quarantined shard flipped liveness/SLO: %v", hz)
	}
	if hz["shards_degraded"] != true {
		t.Fatalf("degraded shards not flagged: %v", hz)
	}
	getJSON(t, ts.URL+"/v1/slo", &slo)
	if !slo.Healthy {
		t.Fatal("quarantined shard burned the SLO budget")
	}
	if slo.Shards[0].Healthy != 3 {
		t.Fatalf("degraded /v1/slo healthy count = %d, want 3", slo.Shards[0].Healthy)
	}
	if st := slo.Shards[0].States[1].State; st != "quarantined" {
		t.Fatalf("shard 1 state = %q, want quarantined", st)
	}
}

// TestShardScatterRoundsExposed pins the batched execution path's
// round-trip observable at the service surface: every sharded engine
// pass — a single query or a whole ExecuteBatch — costs exactly one
// scatter round, counted in engine.shard_scatter_rounds, and the
// counter is scrapeable from /metrics so operators can divide it by
// aide_iterations_total and alert when the one-scatter-per-iteration
// contract drifts.
func TestShardScatterRoundsExposed(t *testing.T) {
	srv, view := shardedServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rounds := obs.GetCounter("engine.shard_scatter_rounds")
	before := rounds.Value()
	full := geom.R(0, 100, 0, 100)
	view.Count(full)
	batch := view.ExecuteBatch([]engine.BatchQuery{
		{Kind: engine.BatchCount, Rect: geom.R(10, 40, 10, 40)},
		{Kind: engine.BatchCount, Rect: geom.R(50, 90, 50, 90)},
		{Kind: engine.BatchRows, Rect: geom.R(20, 30, 20, 30)},
	})
	if batch.Count(0) <= 0 {
		t.Fatal("batched count over a 4-shard view returned nothing")
	}
	if got := rounds.Value() - before; got != 2 {
		t.Fatalf("one Count + one 3-query ExecuteBatch cost %d scatter rounds, want 2", got)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "engine_shard_scatter_rounds") {
		t.Fatal("/metrics exposition is missing engine_shard_scatter_rounds")
	}
}

// TestRecoverAcceptsAnyShardCount is the WAL-compatibility regression
// alongside TestRecoverRefusesChangedData: shard count is execution
// policy, not content, so View.Fingerprint is identical at any shard
// count and a sharded server replays logs written by an unsharded one —
// to the identical predicate.
func TestRecoverAcceptsAnyShardCount(t *testing.T) {
	recoverOnShardedServer(t, nil)
}

// TestRecoverAcceptsAllRemoteShards is the same regression against a
// coordinator whose four shards all live in two shard workers: its view
// is built with no local index (engine.NewRemoteView) yet has the same
// fingerprint, so WALs recover across topologies.
func TestRecoverAcceptsAllRemoteShards(t *testing.T) {
	recoverOnShardedServer(t, func(tab *dataset.Table) []string {
		return startShardWorkers(t, tab, []string{"a0", "a1"}, 4, [][]int{{0, 1}, {2, 3}})
	})
}

// recoverOnShardedServer writes a WAL on an unsharded server and replays
// it on a 4-shard one, whose shards are served by the workers at the
// addresses workers returns (nil: all in-process).
func recoverOnShardedServer(t *testing.T, workers func(tab *dataset.Table) []string) {
	dir := t.TempDir()
	target := geom.R(30, 45, 50, 65)
	req := CreateSessionRequest{
		View:                "uniform",
		Seed:                7,
		SamplesPerIteration: 10,
		MaxIterations:       12,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	discard := slog.New(slog.NewTextHandler(io.Discard, nil))
	tab := dataset.GenerateUniform(10_000, 2, 1)

	// Phase 1: label against an unsharded server, then "crash".
	vA := uniformView(t, 1)
	mA, err := durable.NewManager(dir, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	srvA := NewServer(map[string]*engine.View{"uniform": vA})
	srvA.SampleWait = 5 * time.Second
	srvA.Durable = mA
	tsA := httptest.NewServer(srvA)
	cA := NewClient(tsA.URL, nil)
	id, err := cA.CreateSession(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if n := labelLoop(t, cA, ctx, id, vA, target, 15); n != 15 {
		t.Fatalf("labeled %d before crash, want 15", n)
	}
	var before QueryResponse
	for attempt := 0; attempt < 20; attempt++ {
		if before, err = cA.PredictedQuery(ctx, id); err == nil && before.SQL != "" {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	tsA.Close()

	// Phase 2: a 4-shard server over the same data accepts the log —
	// the fingerprint is shard-count independent — and replays it to the
	// same predicate.
	srvB := NewServer(nil)
	srvB.Registry = engine.NewRegistry()
	srvB.Shards = 4
	srvB.SampleWait = 5 * time.Second
	if workers != nil {
		srvB.ShardAddrs = workers(tab)
	}
	if err := srvB.RegisterTable("uniform", tab, []string{"a0", "a1"}, 1); err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	if got, want := srvB.views["uniform"].Fingerprint(), vA.Fingerprint(); got != want {
		t.Fatalf("sharded fingerprint %q != unsharded %q", got, want)
	}
	if got, want := srvB.views["uniform"].LocalIndex(), workers == nil; got != want {
		t.Fatalf("sharded view LocalIndex = %v, want %v", got, want)
	}
	mB, err := durable.NewManager(dir, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	srvB.Durable = mB
	if n, err := srvB.RecoverSessions(discard); err != nil || n != 1 {
		t.Fatalf("sharded RecoverSessions = %d, %v; want 1 recovered", n, err)
	}
	tsB := httptest.NewServer(srvB)
	defer tsB.Close()
	cB := NewClient(tsB.URL, nil)
	var after QueryResponse
	for attempt := 0; attempt < 50; attempt++ {
		if after, err = cB.PredictedQuery(ctx, id); err == nil && after.SQL != "" {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("recovered session has no query: %v", err)
	}
	if before.SQL != "" && !queriesEqual(before, after) {
		t.Fatalf("recovered-on-sharded predicate differs:\n before %s\n after  %s", before.SQL, after.SQL)
	}
}
