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
	if err := writeFrame(&buf, opCount, payload); err != nil {
		t.Fatal(err)
	}
	op, got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if op != opCount || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: op=%d payload=%q", op, got)
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, opCount, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xff // flip a payload bit: CRC must catch it
	if _, _, err := readFrame(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corrupted frame: err = %v, want CRC mismatch", err)
	}

	buf.Reset()
	writeFrame(&buf, opCount, []byte("payload"))
	raw = buf.Bytes()
	raw[3] = 0xff // absurd length field
	if _, _, err := readFrame(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "length") {
		t.Fatalf("oversized frame: err = %v, want length error", err)
	}

	// A torn frame (truncated mid-payload) must error, not hang or
	// succeed.
	buf.Reset()
	writeFrame(&buf, opCount, []byte("payload"))
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

// TestHelloRefusesVersion2 pins the version-3 bump: a version-2
// coordinator would still send covering-index slices (batch item kind
// 3), which a worker no longer answers, so its hello is refused.
func TestHelloRefusesVersion2(t *testing.T) {
	_, sharded := testViews(t, 2000, 2)
	addr, _ := startWorker(t, 2000, 2, []int{0, 1})
	helloRefused(t, addr, sharded.Fingerprint(), 2, 2)
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

func TestBreakerDeterministicTransitions(t *testing.T) {
	b := newBreaker(0, 3, 4)
	defer b.release()
	if b.Allow() != nil {
		t.Fatal("closed breaker rejected a call")
	}
	b.Record(false)
	b.Allow()
	b.Record(false)
	if b.State() != BreakerClosed {
		t.Fatalf("state after 2/3 failures = %v, want closed", b.State())
	}
	b.Allow()
	b.Record(false) // third consecutive failure opens
	if b.State() != BreakerOpen {
		t.Fatalf("state after 3 failures = %v, want open", b.State())
	}
	// Open: fast-fail until the cooldown (4 Allow ticks) elapses.
	rejected := 0
	for b.State() == BreakerOpen {
		if err := b.Allow(); err != nil {
			if !errors.Is(err, ErrBreakerOpen) {
				t.Fatalf("rejection error = %v", err)
			}
			rejected++
			if rejected > 10 {
				t.Fatal("breaker never admitted a half-open probe")
			}
			continue
		}
		break
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v, want half_open", b.State())
	}
	// Only one probe at a time in half-open.
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second concurrent probe admitted: %v", err)
	}
	b.Record(false) // failed probe -> open again
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	for b.Allow() != nil {
	}
	b.Record(true) // successful probe -> closed
	if b.State() != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}

	wantSeq := []struct{ from, to BreakerState }{
		{BreakerClosed, BreakerOpen},
		{BreakerOpen, BreakerHalfOpen},
		{BreakerHalfOpen, BreakerOpen},
		{BreakerOpen, BreakerHalfOpen},
		{BreakerHalfOpen, BreakerClosed},
	}
	log := b.Transitions()
	if len(log) != len(wantSeq) {
		t.Fatalf("transition log length = %d, want %d: %+v", len(log), len(wantSeq), log)
	}
	for i, w := range wantSeq {
		if log[i].From != w.from || log[i].To != w.to {
			t.Fatalf("transition %d = %v->%v, want %v->%v", i, log[i].From, log[i].To, w.from, w.to)
		}
	}
}

// TestChaosRemoteShardPartialNeverWrong runs the engine chaos
// invariant over the wire: under injected network faults — connection
// refusals, latency spikes, torn frames, mid-stream disconnects — a
// mixed local/remote topology either answers bit-identically to the
// reference or reports the named shard_partial degradation with a
// strict subset; after faults clear, breakers close, the supervisor
// recovers every shard and answers are exact again.
func TestChaosRemoteShardPartialNeverWrong(t *testing.T) {
	seed := chaosSeed(t)
	base, _ := testViews(t, 8000, 4)
	sharded := base.WithShards(engine.ShardOptions{Shards: 4, CooldownOps: 2})
	addr, _ := startWorker(t, 8000, 4, []int{1, 3})
	mixed, client := dialWorker(t, sharded, addr, Options{
		MaxRetries:      1,
		BaseBackoff:     100 * time.Microsecond,
		MaxBackoff:      time.Millisecond,
		BreakerCooldown: 2,
	})
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
	for ri, rect := range randomRects(30, 2, rng) {
		want := base.RowsIn(rect)
		got := mixed.RowsIn(rect)
		name, partial := tracker.Drain()
		if !partial {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("rect %d: undegraded result differs from reference", ri)
			}
			continue
		}
		sawPartial = true
		if !strings.HasPrefix(name, "shard_partial:") {
			t.Fatalf("rect %d: degradation %q, want shard_partial:n/N", ri, name)
		}
		ref := make(map[int]struct{}, len(want))
		for _, r := range want {
			ref[r] = struct{}{}
		}
		for _, r := range got {
			if _, ok := ref[r]; !ok {
				t.Fatalf("rect %d: degraded result contains row %d absent from reference", ri, r)
			}
		}
		if len(got) > len(want) {
			t.Fatalf("rect %d: degraded result larger than reference", ri)
		}
	}
	if !sawPartial {
		t.Fatalf("seed %d: 30 ops under network faults never degraded — injector not reaching the transport", seed)
	}

	// Faults clear: breakers must close and the supervisor must recover
	// every shard, remote included, and answers go exact again.
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
	for _, sh := range client.Shards() {
		if st := client.BreakerState(sh.Index); st != BreakerClosed {
			t.Fatalf("shard %d breaker = %v after recovery, want closed", sh.Index, st)
		}
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
// — and then restarts the worker on the same address and asserts full
// recovery: breaker closes, supervisor walks back to healthy, answers
// exact.
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

	mixed, client := dialWorker(t, sharded, addr, Options{
		DialTimeout:     200 * time.Millisecond,
		MaxRetries:      1,
		BaseBackoff:     100 * time.Microsecond,
		MaxBackoff:      time.Millisecond,
		BreakerCooldown: 2,
	})
	mixed, tracker := mixed.WithShardTracker()

	rng := rand.New(rand.NewSource(7))
	rects := randomRects(40, 2, rng)
	for ri, rect := range rects[:5] {
		if got, want := mixed.RowsIn(rect), base.RowsIn(rect); !reflect.DeepEqual(got, want) {
			t.Fatalf("rect %d: pre-kill result differs", ri)
		}
	}

	// Worker dies: every query must stay never-wrong, and once the
	// breaker opens the failures are in-memory fast-fails.
	srv.Close()
	sawPartial := false
	for ri, rect := range rects[5:20] {
		want := base.RowsIn(rect)
		got := mixed.RowsIn(rect)
		if name, partial := tracker.Drain(); partial {
			sawPartial = true
			if !strings.HasPrefix(name, "shard_partial:") {
				t.Fatalf("rect %d: degradation %q", ri, name)
			}
			ref := make(map[int]struct{}, len(want))
			for _, r := range want {
				ref[r] = struct{}{}
			}
			for _, r := range got {
				if _, ok := ref[r]; !ok {
					t.Fatalf("rect %d: degraded result has row %d not in reference", ri, r)
				}
			}
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("rect %d: undegraded result differs with worker dead", ri)
		}
	}
	if !sawPartial {
		t.Fatal("worker death never surfaced as a partial result")
	}
	if st := client.BreakerState(2); st == BreakerClosed {
		t.Fatalf("breaker still closed with worker dead")
	}

	// Worker restarts on the same address: half-open probe reconnects,
	// supervisor probe readmits the shard, answers are exact again.
	srv2 := startSrv()
	defer srv2.Close()
	full := geom.R(0, 100, 0, 100)
	recovered := func() bool {
		for _, h := range mixed.ShardHealth() {
			if h.State != engine.ShardHealthy.String() {
				return false
			}
		}
		return client.BreakerState(2) == BreakerClosed
	}
	for i := 0; i < 60 && !recovered(); i++ {
		mixed.Count(full)
	}
	if !recovered() {
		t.Fatalf("never recovered after worker restart: health=%+v breaker=%v",
			mixed.ShardHealth(), client.BreakerState(2))
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
		`engine_shard_rpc{op="count"}`,
		`engine_shard_rpc{op="hello"}`,
		`shard_breaker{state="closed"}`,
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
	bad := &remoteShard{c: c, index: 0, rows: 0}
	if _, err := bad.Count(geom.R(0, 100, 0, 100)); err == nil || !strings.Contains(err.Error(), "not served") {
		t.Fatalf("unserved shard: err = %v", err)
	}
	// The same connection still serves shard 1 afterwards.
	good := &remoteShard{c: c, index: 1, rows: 0}
	if _, err := good.Count(geom.R(0, 100, 0, 100)); err != nil {
		t.Fatalf("served shard after opErr: %v", err)
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
