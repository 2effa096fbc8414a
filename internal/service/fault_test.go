package service

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/durable"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/geom"
)

func newTestDurable(t *testing.T) (*durable.Manager, error) {
	t.Helper()
	return durable.NewManager(t.TempDir(), durable.Options{Fsync: durable.FsyncNever})
}

// uniformView regenerates the deterministic test view; two calls with
// the same seed produce bit-identical data, which is what lets a second
// server recover sessions logged by a first.
func uniformView(t *testing.T, seed int64) *engine.View {
	t.Helper()
	tab := dataset.GenerateUniform(10_000, 2, seed)
	v, err := engine.NewView(tab, []string{"a0", "a1"})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestRecoverSessionsReplay kills a server mid-exploration (abandoning
// it, as a crash would) and recovers its session on a fresh server from
// the WAL alone. The recovered session must keep its ID, never re-ask a
// label, and end with predictions bit-identical to a control run that
// was never interrupted — under grid discovery and under clustering
// discovery, where recovery refits the k-means hierarchy from the logged
// seed and must land on the same clusters and the same rng position.
func TestRecoverSessionsReplay(t *testing.T) {
	for _, discovery := range []string{"grid", "clustering"} {
		t.Run(discovery, func(t *testing.T) { testRecoverSessionsReplay(t, discovery) })
	}
}

func testRecoverSessionsReplay(t *testing.T, discovery string) {
	dir := t.TempDir()
	target := geom.R(30, 45, 50, 65)
	req := CreateSessionRequest{
		View:                "uniform",
		Seed:                7,
		SamplesPerIteration: 10,
		MaxIterations:       12,
		Discovery:           discovery,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Phase 1: explore partway, then "crash".
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
	if n := labelLoop(t, cA, ctx, id, vA, target, 35); n != 35 {
		t.Fatalf("labeled %d before crash, want 35", n)
	}
	tsA.Close() // no DELETE, no manager close: the process just died

	// Phase 2: a fresh server over the same data recovers the session.
	vB := uniformView(t, 1)
	mB, err := durable.NewManager(dir, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	srvB := NewServer(map[string]*engine.View{"uniform": vB})
	srvB.SampleWait = 5 * time.Second
	srvB.Durable = mB
	n, err := srvB.RecoverSessions(slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	tsB := httptest.NewServer(srvB)
	defer tsB.Close()
	cB := NewClient(tsB.URL, nil)
	// Same ID, same URLs: the client reconnects as if nothing happened.
	if _, err := cB.Status(ctx, id); err != nil {
		t.Fatalf("recovered session not addressable: %v", err)
	}
	labelLoop(t, cB, ctx, id, vB, target, 300)
	qRecovered, err := cB.PredictedQuery(ctx, id)
	if err != nil {
		t.Fatal(err)
	}

	// Control: the same exploration, never interrupted.
	vC := uniformView(t, 1)
	srvC := NewServer(map[string]*engine.View{"uniform": vC})
	srvC.SampleWait = 5 * time.Second
	tsC := httptest.NewServer(srvC)
	defer tsC.Close()
	cC := NewClient(tsC.URL, nil)
	idC, err := cC.CreateSession(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	labelLoop(t, cC, ctx, idC, vC, target, 300)
	qControl, err := cC.PredictedQuery(ctx, idC)
	if err != nil {
		t.Fatal(err)
	}

	if len(qControl.Areas) == 0 {
		t.Fatal("control run predicted nothing")
	}
	if !queriesEqual(qRecovered, qControl) {
		t.Errorf("recovered run diverged from control:\nrecovered: %q\ncontrol:   %q",
			qRecovered.SQL, qControl.SQL)
	}
}

// TestRecoverCreateRecordWithWorkers checks that create records carrying
// the retired "workers" field still recover: the same log, with and
// without "workers": 2 in its create payload, replays to the same label
// count, predicate and next sample.
func TestRecoverCreateRecordWithWorkers(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	m, err := newTestDurable(t)
	if err != nil {
		t.Fatal(err)
	}
	v := uniformView(t, 1)
	srv := NewServer(map[string]*engine.View{"uniform": v})
	srv.SampleWait = 5 * time.Second
	srv.Durable = m
	ts := httptest.NewServer(srv)
	c := NewClient(ts.URL, nil)
	id, err := c.CreateSession(ctx, CreateSessionRequest{View: "uniform", Seed: 7, SamplesPerIteration: 10})
	if err != nil {
		t.Fatal(err)
	}
	const labels = 30 // three whole iterations, all counted by Status
	if n := labelLoop(t, c, ctx, id, v, geom.R(30, 45, 50, 65), labels); n != labels {
		t.Fatalf("labeled %d, want %d", n, labels)
	}
	ts.Close()
	recs, err := durable.ReadLog(filepath.Join(m.Dir(), id+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Type != durable.RecCreate || recs[0].Payload[0] != '{' {
		t.Fatalf("first record is type %d: %q", recs[0].Type, recs[0].Payload)
	}
	withWorkers := append([]byte(`{"workers":2,`), recs[0].Payload[1:]...)

	type recovered struct {
		status Status
		query  QueryResponse
		next   Sample
	}
	recoverFrom := func(create []byte) recovered {
		t.Helper()
		mR, err := newTestDurable(t)
		if err != nil {
			t.Fatal(err)
		}
		l, err := mR.Create(id, create)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs[1:] {
			if err := l.Append(r.Type, r.Payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		srvR := NewServer(map[string]*engine.View{"uniform": uniformView(t, 1)})
		srvR.SampleWait = 5 * time.Second
		srvR.Durable = mR
		if n, err := srvR.RecoverSessions(slog.New(slog.NewTextHandler(io.Discard, nil))); err != nil || n != 1 {
			t.Fatalf("RecoverSessions = %d, %v", n, err)
		}
		tsR := httptest.NewServer(srvR)
		defer tsR.Close()
		cR := NewClient(tsR.URL, nil)
		var out recovered
		// The next sample is one the log has no label for, so once it is
		// served the replay has consumed every logged label.
		if out.next, err = cR.NextSample(ctx, id); err != nil {
			t.Fatal(err)
		}
		if out.status, err = cR.Status(ctx, id); err != nil {
			t.Fatal(err)
		}
		if out.query, err = cR.PredictedQuery(ctx, id); err != nil {
			t.Fatal(err)
		}
		out.status.WaitSeconds = 0
		return out
	}
	plain, old := recoverFrom(recs[0].Payload), recoverFrom(withWorkers)
	if plain.status.TotalLabeled != labels {
		t.Fatalf("recovered %d labels, want %d", plain.status.TotalLabeled, labels)
	}
	if !reflect.DeepEqual(old.status, plain.status) {
		t.Errorf("status differs:\nwith workers: %+v\nwithout:      %+v", old.status, plain.status)
	}
	if !queriesEqual(old.query, plain.query) {
		t.Errorf("predicate differs:\nwith workers: %q\nwithout:      %q", old.query.SQL, plain.query.SQL)
	}
	if !reflect.DeepEqual(old.next, plain.next) {
		t.Errorf("next sample differs: with workers %+v, without %+v", old.next, plain.next)
	}
}

// TestExpireIdleKeepsWAL checks the janitor/persistence contract:
// eviction frees the in-memory session but keeps the log, so the
// exploration survives a later restart; only DELETE destroys it.
func TestExpireIdleKeepsWAL(t *testing.T) {
	m, err := newTestDurable(t)
	if err != nil {
		t.Fatal(err)
	}
	v := uniformView(t, 1)
	srv := NewServer(map[string]*engine.View{"uniform": v})
	srv.SampleWait = 5 * time.Second
	srv.Durable = m
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	id, err := c.CreateSession(ctx, CreateSessionRequest{View: "uniform", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	labelLoop(t, c, ctx, id, v, geom.R(30, 45, 50, 65), 5)

	if n := srv.ExpireIdle(0); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	if _, err := c.Status(ctx, id); err == nil {
		t.Error("evicted session should 404")
	}
	walPath := filepath.Join(m.Dir(), id+".wal")
	if _, err := os.Stat(walPath); err != nil {
		t.Fatalf("eviction destroyed the WAL: %v", err)
	}

	// Recovery resurrects the evicted session under the same ID.
	if n, err := srv.RecoverSessions(slog.New(slog.NewTextHandler(io.Discard, nil))); err != nil || n != 1 {
		t.Fatalf("RecoverSessions = %d, %v", n, err)
	}
	if _, err := c.Status(ctx, id); err != nil {
		t.Fatalf("resurrected session not addressable: %v", err)
	}
	labelLoop(t, c, ctx, id, v, geom.R(30, 45, 50, 65), 3)

	// DELETE is the one destructive path.
	if err := c.Close(ctx, id); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(walPath); !os.IsNotExist(err) {
		t.Errorf("DELETE left the WAL behind: %v", err)
	}
}

// TestSnapshotCompaction drives enough labels past SnapshotEvery and
// checks the log was rewritten around a snapshot record, and that a
// compacted log still recovers to a working session.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	m, err := durable.NewManager(dir, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	v := uniformView(t, 1)
	srv := NewServer(map[string]*engine.View{"uniform": v})
	srv.SampleWait = 5 * time.Second
	srv.Durable = m
	srv.SnapshotEvery = 10
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	id, err := c.CreateSession(ctx, CreateSessionRequest{
		View: "uniform", Seed: 7, SamplesPerIteration: 10, MaxIterations: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	labelLoop(t, c, ctx, id, v, geom.R(30, 45, 50, 65), 40)

	// Compaction runs on the session goroutine between iterations; give
	// it a beat.
	var recs []durable.Record
	deadline := time.Now().Add(10 * time.Second)
	for {
		recs, err = durable.ReadLog(filepath.Join(dir, id+".wal"))
		if err == nil {
			snap := false
			for _, r := range recs {
				if r.Type == durable.RecSnapshot {
					snap = true
				}
			}
			if snap {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("log never compacted; %d records", len(recs))
		}
		time.Sleep(20 * time.Millisecond)
	}
	if recs[0].Type != durable.RecCreate || recs[1].Type != durable.RecSnapshot {
		t.Fatalf("compacted log starts %v, %v; want create, snapshot", recs[0].Type, recs[1].Type)
	}

	// A compacted log recovers (converging resume, not bit-identical).
	ts.Close()
	v2 := uniformView(t, 1)
	m2, err := durable.NewManager(dir, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(map[string]*engine.View{"uniform": v2})
	srv2.SampleWait = 5 * time.Second
	srv2.Durable = m2
	if n, err := srv2.RecoverSessions(slog.New(slog.NewTextHandler(io.Discard, nil))); err != nil || n != 1 {
		t.Fatalf("RecoverSessions = %d, %v", n, err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	c2 := NewClient(ts2.URL, nil)
	st, err := c2.Status(ctx, id)
	if err != nil {
		t.Fatalf("recovered session not addressable: %v", err)
	}
	if st.TotalLabeled == 0 {
		t.Error("snapshot recovery lost the labeled set")
	}
	labelLoop(t, c2, ctx, id, v2, geom.R(30, 45, 50, 65), 5)
}

// TestClientRetryBackoff checks 503s are retried with backoff and a
// Retry-After floor, and everything else is not.
func TestClientRetryBackoff(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"overloaded"}`)
			return
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	c.BaseBackoff = time.Millisecond
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("health after retries: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3 (two 503s + success)", got)
	}

	// Non-503 errors are never retried.
	calls.Store(100) // handler now always succeeds; use a 404 server instead
	ts404 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusNotFound)
	}))
	defer ts404.Close()
	c404 := NewClient(ts404.URL, nil)
	c404.BaseBackoff = time.Millisecond
	before := calls.Load()
	if err := c404.Health(context.Background()); err == nil {
		t.Fatal("404 should error")
	}
	if calls.Load() != before+1 {
		t.Errorf("404 was retried: %d extra calls", calls.Load()-before)
	}
}

// TestClientRetryHonorsContext checks a cancelled context interrupts
// the backoff sleep, not just the HTTP exchange.
func TestClientRetryHonorsContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	c.BaseBackoff = 10 * time.Second

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.Health(ctx)
	if err == nil {
		t.Fatal("want error")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("retry ignored context for %v", elapsed)
	}
	if !strings.Contains(err.Error(), context.DeadlineExceeded.Error()) {
		t.Errorf("error = %v, want the deadline surfaced", err)
	}
}

// TestMaxInflightSheds occupies the only slot with a long poll and
// checks the next request is shed with 503 + Retry-After, while
// /healthz stays exempt.
func TestMaxInflightSheds(t *testing.T) {
	srv, _ := newTestServer(t)
	srv.SampleWait = 1 * time.Second
	srv.MaxInflight = 1
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	id, err := c.CreateSession(ctx, CreateSessionRequest{View: "uniform", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(ctx, id)
	// Fetch the first sample without labeling it: the session goroutine
	// now blocks on the reply, so the next GET /sample long-polls its
	// full SampleWait, pinning the single inflight slot.
	if _, err := c.NextSample(ctx, id); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/sample")
		if err == nil {
			resp.Body.Close()
		}
	}()
	time.Sleep(100 * time.Millisecond) // let the long poll occupy the slot

	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status under load = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	// Liveness is exempt from shedding.
	respH, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	respH.Body.Close()
	if respH.StatusCode != http.StatusOK {
		t.Errorf("healthz under load = %d, want 200", respH.StatusCode)
	}
	<-done
	// The slot is free again.
	if _, err := c.Status(ctx, id); err != nil {
		t.Errorf("status after load: %v", err)
	}
}

// TestMaxBodyBytes rejects oversized request bodies.
func TestMaxBodyBytes(t *testing.T) {
	srv, _ := newTestServer(t)
	srv.MaxBodyBytes = 64
	ts := httptest.NewServer(srv)
	defer ts.Close()

	big := `{"view":"uniform","seed":1,"pad":"` + strings.Repeat("x", 1024) + `"}`
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized body status = %d, want 400", resp.StatusCode)
	}
}

// TestRecoveryMiddleware turns handler panics into 500s carrying the
// request ID instead of torn connections.
func TestRecoveryMiddleware(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	h := WithRequestLog(logger, WithRecovery(logger, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	})))
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/anything")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("missing X-Request-ID header")
	}
	if !strings.Contains(string(body), "request_id") {
		t.Errorf("body %q missing request_id", body)
	}
}

// TestDeadlineMiddleware attaches a deadline visible to handlers.
func TestDeadlineMiddleware(t *testing.T) {
	h := WithDeadline(50*time.Millisecond, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := r.Context().Deadline(); !ok {
			t.Error("handler saw no deadline")
		}
		select {
		case <-r.Context().Done():
			w.WriteHeader(http.StatusRequestTimeout)
		case <-time.After(5 * time.Second):
			w.WriteHeader(http.StatusOK)
		}
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	start := time.Now()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Errorf("status = %d, want 408", resp.StatusCode)
	}
	if time.Since(start) > 3*time.Second {
		t.Error("deadline did not fire")
	}
}
