package shardrpc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/faultinject"
	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/obs"
)

// chaosSeed returns the fault-injection seed, from AIDE_FAULT_SEED when
// the CI chaos matrix sets it.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	env := os.Getenv("AIDE_FAULT_SEED")
	if env == "" {
		return 1
	}
	seed, err := strconv.ParseInt(env, 10, 64)
	if err != nil {
		t.Fatalf("bad AIDE_FAULT_SEED %q: %v", env, err)
	}
	return seed
}

// testViews builds the deterministic base view plus its sharded
// version, the same construction a worker performs.
func testViews(t testing.TB, rows, shards int) (base, sharded *engine.View) {
	t.Helper()
	tab := dataset.GenerateSDSS(rows, 5)
	base, err := engine.NewViewWorkers(tab, []string{"rowc", "colc"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return base, base.WithShards(engine.ShardOptions{Shards: shards})
}

// startWorker serves the given shard indexes of a worker-built view
// over a unix socket and returns its address. The worker view is built
// independently from the same inputs, exactly like cmd/aideshard.
func startWorker(t testing.TB, rows, totalShards int, indexes []int) (addr string, srv *Server) {
	t.Helper()
	_, workerView := testViews(t, rows, totalShards)
	all := workerView.LocalShardBackends()
	subset := make(map[int]engine.ShardBackend, len(indexes))
	for _, i := range indexes {
		subset[i] = all[i]
	}
	srv = NewServer(workerView.Fingerprint(), totalShards, subset)
	addr = filepath.Join(t.TempDir(), "w.sock")
	ln, err := net.Listen("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return addr, srv
}

// dialWorker dials the worker and routes its announced shards through
// the sharded view, returning the mixed local/remote topology.
func dialWorker(t *testing.T, sharded *engine.View, addr string, opts Options) (*engine.View, *Client) {
	t.Helper()
	c, err := Dial(addr, sharded.Fingerprint(), sharded.ShardCount(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	mixed, err := sharded.WithShardBackends(c.Backends())
	if err != nil {
		t.Fatal(err)
	}
	return mixed, c
}

func randomRects(n, dims int, rng *rand.Rand) []geom.Rect {
	out := make([]geom.Rect, 0, n)
	for i := 0; i < n; i++ {
		r := make(geom.Rect, dims)
		for d := range r {
			a := rng.Float64() * 100
			b := rng.Float64() * 100
			if a > b {
				a, b = b, a
			}
			r[d] = geom.Interval{Lo: a, Hi: b}
		}
		out = append(out, r)
	}
	return out
}

// checkNeverWrong fails unless got is want, or a subset of it carrying
// a named shard_partial degradation; it returns whether it degraded.
func checkNeverWrong(t *testing.T, tracker *engine.ShardTracker, got, want []int) bool {
	t.Helper()
	name, partial := tracker.Drain()
	if !partial {
		if !reflect.DeepEqual(got, want) {
			t.Fatal("undegraded result differs from the reference")
		}
		return false
	}
	if !strings.HasPrefix(name, "shard_partial:") {
		t.Fatalf("degradation %q, want shard_partial:n/N", name)
	}
	ref := make(map[int]struct{}, len(want))
	for _, r := range want {
		ref[r] = struct{}{}
	}
	for _, r := range got {
		if _, ok := ref[r]; !ok {
			t.Fatalf("degraded result has row %d absent from the reference", r)
		}
	}
	if len(got) > len(want) {
		t.Fatal("degraded result larger than the reference")
	}
	return true
}

// singleDimRect constrains only dim, which steers SampleRect onto the
// covering-index path, answered from the coordinator's own index.
func singleDimRect(dims, dim int, lo, hi float64) geom.Rect {
	r := make(geom.Rect, dims)
	for d := range r {
		r[d] = geom.Interval{Lo: 0, Hi: 100}
	}
	r[dim] = geom.Interval{Lo: lo, Hi: hi}
	return r
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("the payload")
	if err := writeFrame(&buf, opBatch, payload); err != nil {
		t.Fatal(err)
	}
	op, got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if op != opBatch || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: op=%d payload=%q", op, got)
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, opBatch, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xff // flip a payload bit: CRC must catch it
	if _, _, err := readFrame(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corrupted frame: err = %v, want CRC mismatch", err)
	}

	buf.Reset()
	writeFrame(&buf, opBatch, []byte("payload"))
	raw = buf.Bytes()
	raw[3] = 0xff // absurd length field
	if _, _, err := readFrame(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "length") {
		t.Fatalf("oversized frame: err = %v, want length error", err)
	}

	// A torn frame (truncated mid-payload) must error, not hang or
	// succeed.
	buf.Reset()
	writeFrame(&buf, opBatch, []byte("payload"))
	if _, _, err := readFrame(bytes.NewReader(buf.Bytes()[:buf.Len()-3])); err == nil {
		t.Fatal("torn frame read succeeded")
	}
}

func TestHelloRejectsMismatches(t *testing.T) {
	_, sharded := testViews(t, 2000, 4)
	addr, _ := startWorker(t, 2000, 4, []int{0, 1})

	if _, err := Dial(addr, "aide-fp1-deadbeefdeadbeef", 4, Options{}); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("wrong fingerprint accepted: %v", err)
	}
	if _, err := Dial(addr, sharded.Fingerprint(), 8, Options{}); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("wrong shard count accepted: %v", err)
	}
	// A version-1 coordinator knows no RowsAny item: a mixed deploy fails
	// here, at hello, instead of degrading to shard_partial later.
	helloRefused(t, addr, sharded.Fingerprint(), 4, 1)
	c, err := Dial(addr, sharded.Fingerprint(), 4, Options{})
	if err != nil {
		t.Fatalf("matching hello rejected: %v", err)
	}
	defer c.Close()
	if got := len(c.Shards()); got != 2 {
		t.Fatalf("announced shards = %d, want 2", got)
	}
}

// TestHelloRefusesOldVersions pins the version-3 and version-4 bumps:
// a version-2 coordinator would still send covering-index slices (batch
// item kind 3) and a version-3 one per-operation requests (ops 2–7),
// neither of which a worker answers any more, so their hellos are
// refused.
func TestHelloRefusesOldVersions(t *testing.T) {
	_, sharded := testViews(t, 2000, 2)
	addr, _ := startWorker(t, 2000, 2, []int{0, 1})
	for _, version := range []uint32{2, 3} {
		helloRefused(t, addr, sharded.Fingerprint(), 2, version)
	}
}

// helloRefused sends a hello at protocol version on a fresh connection
// to addr and fails unless the worker answers a protocol version error.
func helloRefused(t *testing.T, addr, fp string, shards int, version uint32) {
	t.Helper()
	conn, err := net.Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := &enc{}
	hello.u32(version)
	hello.str(fp)
	hello.u32(uint32(shards))
	if err := writeFrame(conn, opHello, hello.b); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("protocol version %d", version)
	if op, resp, err := readFrame(conn); err != nil || op != opErr || !strings.Contains((&dec{b: resp}).str(), want) {
		t.Fatalf("version-%d hello answered op %d (%v), want a protocol version error", version, op, err)
	}
}

// TestRemoteBitIdentity is the tentpole contract: a mixed local/remote
// topology answers every query bit-identically to the unsharded view —
// Count, RowsIn, RowsInAny, and SampleRect on both its grid and
// covering-index paths (same rng, same draws).
func TestRemoteBitIdentity(t *testing.T) {
	base, sharded := testViews(t, 8000, 4)
	addr, _ := startWorker(t, 8000, 4, []int{1, 3})
	mixed, _ := dialWorker(t, sharded, addr, Options{})

	for i, h := range mixed.ShardHealth() {
		wantRemote := i == 1 || i == 3
		if h.Remote != wantRemote {
			t.Fatalf("shard %d remote = %v, want %v", i, h.Remote, wantRemote)
		}
	}

	rng := rand.New(rand.NewSource(11))
	for ri, rect := range randomRects(30, 2, rng) {
		if got, want := mixed.Count(rect), base.Count(rect); got != want {
			t.Fatalf("rect %d: Count = %d, want %d", ri, got, want)
		}
		if got, want := mixed.RowsIn(rect), base.RowsIn(rect); !reflect.DeepEqual(got, want) {
			t.Fatalf("rect %d: RowsIn diverged (%d vs %d rows)", ri, len(got), len(want))
		}
	}
	rects := randomRects(4, 2, rng)
	if got, want := mixed.RowsInAny(rects), base.RowsInAny(rects); !reflect.DeepEqual(got, want) {
		t.Fatalf("RowsInAny diverged (%d vs %d rows)", len(got), len(want))
	}
	// Grid sampling path: identical rng state must draw identical rows.
	for ri, rect := range randomRects(10, 2, rng) {
		rngA := rand.New(rand.NewSource(int64(ri)))
		rngB := rand.New(rand.NewSource(int64(ri)))
		got := mixed.SampleRect(rect, 16, rngA)
		want := base.SampleRect(rect, 16, rngB)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rect %d: SampleRect (grid) diverged\n got %v\nwant %v", ri, got, want)
		}
	}
	// Covering-index path: single constrained dimension, answered from
	// the view's own covering index.
	for ri, rect := range []geom.Rect{
		singleDimRect(2, 0, 10, 30),
		singleDimRect(2, 1, 42.5, 57.25),
		singleDimRect(2, 0, 0, 100),
	} {
		rngA := rand.New(rand.NewSource(int64(100 + ri)))
		rngB := rand.New(rand.NewSource(int64(100 + ri)))
		got := mixed.SampleRect(rect, 20, rngA)
		want := base.SampleRect(rect, 20, rngB)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rect %d: SampleRect (index) diverged\n got %v\nwant %v", ri, got, want)
		}
	}
}

// TestRemoteSharedCacheBitIdentity pins that the coordinator-side
// predicate cache serves remote shards too: a second pass over the same
// rects (cache hits, no wire round-trips) stays bit-identical. Sample
// plans are part of it — a remote shard's piece is memoized as the rows
// the wire carried, a local shard's as counts — so a warm draw over the
// mixed topology returns the unsharded view's rows, leaves the rng where
// it leaves it, and sends nothing.
func TestRemoteSharedCacheBitIdentity(t *testing.T) {
	base, sharded := testViews(t, 4000, 4)
	addr, _ := startWorker(t, 4000, 4, []int{1, 3})
	mixed, _ := dialWorker(t, sharded.WithCache(engine.NewCache(1<<20)), addr, Options{})

	rng := rand.New(rand.NewSource(3))
	rects := randomRects(10, 2, rng)
	for pass := 0; pass < 2; pass++ {
		batchRPCs := obsRPCBatch.Value()
		for ri, rect := range rects {
			if got, want := mixed.Count(rect), base.Count(rect); got != want {
				t.Fatalf("pass %d rect %d: Count = %d, want %d", pass, ri, got, want)
			}
			if got, want := mixed.RowsIn(rect), base.RowsIn(rect); !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d rect %d: RowsIn diverged", pass, ri)
			}
			for _, n := range []int{1, 5, 4000} {
				rngA := rand.New(rand.NewSource(int64(ri*7 + n)))
				rngB := rand.New(rand.NewSource(int64(ri*7 + n)))
				if got, want := mixed.SampleRect(rect, n, rngA), base.SampleRect(rect, n, rngB); !reflect.DeepEqual(got, want) {
					t.Fatalf("pass %d rect %d n=%d: SampleRect diverged\n got %v\nwant %v", pass, ri, n, got, want)
				}
				if rngA.Int63() != rngB.Int63() {
					t.Fatalf("pass %d rect %d n=%d: rng position diverged", pass, ri, n)
				}
			}
		}
		if sent := obsRPCBatch.Value() - batchRPCs; pass == 1 && sent != 0 {
			t.Fatalf("warm pass sent %d batch RPCs, want 0: memoized plans must skip the shard call", sent)
		}
	}
	if st := mixed.Cache().Stats(); st.PlanHits == 0 {
		t.Fatal("no sample plan was served from the cache")
	}
}

// TestChaosRemoteShardPartialNeverWrong runs the engine chaos
// invariant over the wire: under injected network faults — connection
// refusals, latency spikes, torn frames, mid-stream disconnects — a
// mixed local/remote topology either answers bit-identically to the
// reference or reports the named shard_partial degradation with a
// strict subset; after faults clear, the supervisor recovers every
// shard and answers are exact again.
func TestChaosRemoteShardPartialNeverWrong(t *testing.T) {
	seed := chaosSeed(t)
	base, _ := testViews(t, 8000, 4)
	sharded := base.WithShards(engine.ShardOptions{Shards: 4, CooldownOps: 2})
	addr, _ := startWorker(t, 8000, 4, []int{1, 3})
	mixed, _ := dialWorker(t, sharded, addr, Options{})
	mixed, tracker := mixed.WithShardTracker()

	faultinject.Activate(faultinject.New(faultinject.Config{
		Seed:        seed,
		ErrorRate:   0.35,
		PartialRate: 0.25,
		LatencyRate: 0.1,
		Latency:     200 * time.Microsecond,
		Points: []string{
			faultinject.FaultShardRPCDial,
			faultinject.FaultShardRPCRead,
			faultinject.FaultShardRPCWrite,
		},
	}))
	deactivated := false
	defer func() {
		if !deactivated {
			faultinject.Deactivate()
		}
	}()

	rng := rand.New(rand.NewSource(seed))
	sawPartial := false
	for _, rect := range randomRects(30, 2, rng) {
		if checkNeverWrong(t, tracker, mixed.RowsIn(rect), base.RowsIn(rect)) {
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Fatalf("seed %d: 30 ops under network faults never degraded — injector not reaching the transport", seed)
	}

	// Faults clear: the supervisor must recover every shard, remote
	// included, and answers go exact again.
	faultinject.Deactivate()
	deactivated = true
	full := geom.R(0, 100, 0, 100)
	healthyAll := func() bool {
		for _, h := range mixed.ShardHealth() {
			if h.State != engine.ShardHealthy.String() {
				return false
			}
		}
		return true
	}
	for i := 0; i < 60 && !healthyAll(); i++ {
		mixed.Count(full)
	}
	if !healthyAll() {
		t.Fatalf("shards never recovered after faults cleared: %+v", mixed.ShardHealth())
	}
	tracker.Drain()
	rng = rand.New(rand.NewSource(seed + 1))
	for ri, rect := range randomRects(10, 2, rng) {
		if got, want := mixed.RowsIn(rect), base.RowsIn(rect); !reflect.DeepEqual(got, want) {
			t.Fatalf("rect %d: post-recovery result differs from reference", ri)
		}
	}
	if name, partial := tracker.Drain(); partial {
		t.Fatalf("post-recovery ops still degraded: %q", name)
	}
}

// TestChaosRemoteWorkerRestartRecovers kills the worker (server closed
// under the client, connections dead, re-dials refused), asserts the
// engine degrades to the named partial contract — never a wrong answer
// — with the shard quarantined, and then restarts the worker on the
// same address and asserts full recovery: the supervisor's probe
// reconnects and walks the shard back to healthy, answers exact.
func TestChaosRemoteWorkerRestartRecovers(t *testing.T) {
	rows, total := 6000, 4
	base, _ := testViews(t, rows, total)
	sharded := base.WithShards(engine.ShardOptions{Shards: total, CooldownOps: 2})

	_, workerView := testViews(t, rows, total)
	all := workerView.LocalShardBackends()
	subset := map[int]engine.ShardBackend{2: all[2]}
	addr := filepath.Join(t.TempDir(), "w.sock")
	startSrv := func() *Server {
		srv := NewServer(workerView.Fingerprint(), total, subset)
		ln, err := net.Listen("unix", addr)
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		return srv
	}
	srv := startSrv()

	mixed, _ := dialWorker(t, sharded, addr, Options{DialTimeout: 200 * time.Millisecond})
	mixed, tracker := mixed.WithShardTracker()

	rng := rand.New(rand.NewSource(7))
	rects := randomRects(40, 2, rng)
	for ri, rect := range rects[:5] {
		if got, want := mixed.RowsIn(rect), base.RowsIn(rect); !reflect.DeepEqual(got, want) {
			t.Fatalf("rect %d: pre-kill result differs", ri)
		}
	}

	// Worker dies: every query must stay never-wrong, and once the
	// supervisor quarantines the shard it is skipped without a dial.
	srv.Close()
	sawPartial := false
	for _, rect := range rects[5:20] {
		if checkNeverWrong(t, tracker, mixed.RowsIn(rect), base.RowsIn(rect)) {
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Fatal("worker death never surfaced as a partial result")
	}
	if st := mixed.ShardHealth()[2].State; st != engine.ShardQuarantined.String() {
		t.Fatalf("shard 2 %s with worker dead, want quarantined", st)
	}

	// Worker restarts on the same address: the supervisor's probe
	// reconnects and readmits the shard, answers are exact again.
	srv2 := startSrv()
	defer srv2.Close()
	full := geom.R(0, 100, 0, 100)
	recovered := func() bool {
		for _, h := range mixed.ShardHealth() {
			if h.State != engine.ShardHealthy.String() {
				return false
			}
		}
		return true
	}
	for i := 0; i < 60 && !recovered(); i++ {
		mixed.Count(full)
	}
	if !recovered() {
		t.Fatalf("never recovered after worker restart: %+v", mixed.ShardHealth())
	}
	tracker.Drain()
	for ri, rect := range rects[20:] {
		if got, want := mixed.RowsIn(rect), base.RowsIn(rect); !reflect.DeepEqual(got, want) {
			t.Fatalf("rect %d: post-restart result differs", ri)
		}
	}
	if name, partial := tracker.Drain(); partial {
		t.Fatalf("post-restart ops still degraded: %q", name)
	}
}

// TestRPCMetricsExposition asserts the new metric families land on the
// Prometheus exposition with bounded label sets and pass the validator.
func TestRPCMetricsExposition(t *testing.T) {
	base, sharded := testViews(t, 2000, 2)
	addr, _ := startWorker(t, 2000, 2, []int{1})
	mixed, _ := dialWorker(t, sharded, addr, Options{})
	rng := rand.New(rand.NewSource(1))
	for _, rect := range randomRects(3, 2, rng) {
		if got, want := mixed.Count(rect), base.Count(rect); got != want {
			t.Fatalf("Count = %d, want %d", got, want)
		}
		mixed.SampleRect(rect, 8, rand.New(rand.NewSource(2)))
	}

	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`engine_shard_rpc{op="batch"}`,
		`engine_shard_rpc{op="hello"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	if err := obs.ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
}

// TestServerRejectsUnservedShard pins the opErr path: asking a worker
// for a shard it does not serve is an explicit error, not a wrong
// answer, and the connection survives it.
func TestServerRejectsUnservedShard(t *testing.T) {
	_, sharded := testViews(t, 2000, 4)
	addr, _ := startWorker(t, 2000, 4, []int{1})
	c, err := Dial(addr, sharded.Fingerprint(), 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	count := []engine.ShardBatchItem{{Kind: engine.BatchCount, Rect: geom.R(0, 100, 0, 100)}}
	bad := &remoteShard{c: c, index: 0}
	if _, err := bad.ExecuteBatch(count); err == nil || !strings.Contains(err.Error(), "not served") {
		t.Fatalf("unserved shard: err = %v", err)
	}
	// The same connection still serves shard 1 afterwards.
	good := &remoteShard{c: c, index: 1}
	if _, err := good.ExecuteBatch(count); err != nil {
		t.Fatalf("served shard after opErr: %v", err)
	}
}

// TestSingleOpAdaptersMatchBatch pins engine.BatchAdapter on both
// backends, local and over the wire: each single-item method answers
// exactly what the one-item ExecuteBatch does, Examined included, and
// SortedSlice is not served.
func TestSingleOpAdaptersMatchBatch(t *testing.T) {
	_, sharded := testViews(t, 4000, 2)
	addr, _ := startWorker(t, 4000, 2, []int{0, 1})
	c, err := Dial(addr, sharded.Fingerprint(), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	remote := c.Backends()
	rects := append(randomRects(8, 2, rand.New(rand.NewSource(5))), geom.R(0, 100, 0, 100))
	for i, local := range sharded.LocalShardBackends() {
		for name, b := range map[string]engine.ShardBackend{"local": local, "remote": remote[i]} {
			batch := func(it engine.ShardBatchItem) engine.ShardBatchResult {
				out, err := b.ExecuteBatch([]engine.ShardBatchItem{it})
				if err != nil {
					t.Fatalf("%s shard %d: %v", name, i, err)
				}
				return out[0]
			}
			check := func(method string, ri int, got any, err error, want any) {
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s shard %d rect %d: %s = %+v (%v), want the one-item batch's %+v", name, i, ri, method, got, err, want)
				}
			}
			for ri, rect := range rects {
				count, err := b.Count(rect)
				check("Count", ri, count, err, batch(engine.ShardBatchItem{Kind: engine.BatchCount, Rect: rect}).Count)
				rows, err := b.RowsIn(rect)
				check("RowsIn", ri, rows, err, batch(engine.ShardBatchItem{Kind: engine.BatchRows, Rect: rect}).Rows)
				anyRows, err := b.RowsInAny(rects[:ri+1])
				check("RowsInAny", ri, anyRows, err, batch(engine.ShardBatchItem{Kind: engine.BatchRowsAny, Rects: rects[:ri+1]}).Rows)
				sample, err := b.SampleGrid(rect)
				check("SampleGrid", ri, sample, err, batch(engine.ShardBatchItem{Kind: engine.BatchSample, Rect: rect}).Sample)
			}
			if _, err := b.SortedSlice(0, geom.Interval{Lo: 0, Hi: 100}); !errors.Is(err, engine.ErrNotServed) {
				t.Fatalf("%s shard %d: SortedSlice err = %v, want ErrNotServed", name, i, err)
			}
		}
	}
}

func TestNetworkGuess(t *testing.T) {
	for addr, want := range map[string]string{
		"localhost:9090": "tcp",
		":9090":          "tcp",
		"/tmp/w.sock":    "unix",
		"sub/dir/w.sock": "unix",
		"10.0.0.1:1":     "tcp",
		`C:\temp\w.sock`: "unix",
		"[::1]:80":       "tcp",
	} {
		if got := Network(addr); got != want {
			t.Errorf("Network(%q) = %q, want %q", addr, got, want)
		}
	}
}

func TestWithShardBackendsValidation(t *testing.T) {
	base, sharded := testViews(t, 2000, 2)
	if _, err := base.WithShardBackends(map[int]engine.ShardBackend{0: nil}); err == nil {
		t.Fatal("unsharded view accepted backends")
	}
	if _, err := sharded.WithShardBackends(map[int]engine.ShardBackend{5: nil}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := sharded.WithShardBackends(map[int]engine.ShardBackend{0: nil}); err == nil {
		t.Fatal("nil backend accepted")
	}
}

func BenchmarkRemoteCount(b *testing.B) {
	tab := dataset.GenerateSDSS(20000, 5)
	base, err := engine.NewViewWorkers(tab, []string{"rowc", "colc"}, 1)
	if err != nil {
		b.Fatal(err)
	}
	sharded := base.WithShards(engine.ShardOptions{Shards: 4})
	all := sharded.LocalShardBackends()
	subset := map[int]engine.ShardBackend{1: all[1], 3: all[3]}
	srv := NewServer(base.Fingerprint(), 4, subset)
	dir, err := os.MkdirTemp("", "shardrpc")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	addr := filepath.Join(dir, "w.sock")
	ln, err := net.Listen("unix", addr)
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	c, err := Dial(addr, base.Fingerprint(), 4, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	mixed, err := sharded.WithShardBackends(c.Backends())
	if err != nil {
		b.Fatal(err)
	}
	rect := geom.R(20, 70, 30, 80)
	want := base.Count(rect)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := mixed.Count(rect); got != want {
			b.Fatalf("Count = %d, want %d", got, want)
		}
	}
}
