package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/obs"
)

// driveSession runs a short scripted exploration over HTTP and returns
// the session id (still live).
func driveSession(t *testing.T, c *Client, v *engine.View, labels int) string {
	t.Helper()
	ctx := context.Background()
	id, err := c.CreateSession(ctx, CreateSessionRequest{
		View: "uniform", Seed: 5, SamplesPerIteration: 10, MaxIterations: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	target := geom.R(20, 70, 25, 75)
	for i := 0; i < labels; i++ {
		sample, err := c.NextSample(ctx, id)
		if errors.Is(err, ErrSessionDone) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		p := v.Normalizer().ToNorm(geom.Point{sample.Values["a0"], sample.Values["a1"]})
		if err := c.SubmitLabel(ctx, id, sample.Row, target.Contains(p)); err != nil {
			t.Fatal(err)
		}
	}
	return id
}

func TestMetricsAndTraceEndpoints(t *testing.T) {
	srv, v := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	id := driveSession(t, c, v, 35)
	defer c.Close(ctx, id)

	// /v1/metrics: valid JSON with nonzero engine + service counters.
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"engine.queries", "engine.rows_examined", "engine.sample_calls",
		"explore.iterations", "explore.labels_received",
		"service.sessions_created", "service.http.requests.sample",
	} {
		v, ok := m[name].(float64)
		if !ok || v <= 0 {
			t.Errorf("metric %s = %v, want > 0", name, m[name])
		}
	}
	// Histograms render as summaries.
	hist, ok := m["engine.query_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("engine.query_seconds = %v", m["engine.query_seconds"])
	}
	if cnt, _ := hist["count"].(float64); cnt <= 0 {
		t.Errorf("engine.query_seconds count = %v", hist["count"])
	}
	for _, q := range []string{"p50", "p95", "p99", "sum"} {
		if _, ok := hist[q]; !ok {
			t.Errorf("engine.query_seconds missing %s: %v", q, hist)
		}
	}

	// /v1/sessions/{id}/trace: per-iteration spans with phase children.
	tr, err := c.Trace(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ID != id || tr.View != "uniform" {
		t.Errorf("trace header = %+v", tr)
	}
	if tr.Total == 0 || len(tr.Spans) == 0 {
		t.Fatalf("no spans recorded: %+v", tr)
	}
	phases := map[string]bool{}
	for _, sp := range tr.Spans {
		if sp.Name != "iteration" {
			t.Errorf("root span = %q", sp.Name)
		}
		for _, ch := range sp.Children {
			phases[ch.Name] = true
		}
	}
	if !phases["discovery"] || !phases["train"] {
		t.Errorf("phase spans seen = %v, want discovery and train", phases)
	}

	// Unknown session id 404s.
	resp, err := ts.Client().Get(ts.URL + "/v1/sessions/nosuch/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace of unknown session = %d", resp.StatusCode)
	}
}

// promSample returns the value of one exactly-named series in a
// Prometheus text exposition, -1 when absent.
func promSample(exposition, series string) float64 {
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				return -1
			}
			return v
		}
	}
	return -1
}

// TestCacheKindMetricsAfterTwoSessions: two sessions with the same seed
// over one cached view ask for the same discovery samples, so the second
// draws from the plans the first memoized. /metrics must split the cache
// traffic by kind — plan misses from the first session, plan hits from
// the second — and the second session's flight events must carry the
// plan hits next to the cache hits.
func TestCacheKindMetricsAfterTwoSessions(t *testing.T) {
	_, v := newTestServer(t)
	srv := NewServer(map[string]*engine.View{"uniform": v.WithCache(engine.NewCache(1 << 20))})
	srv.SampleWait = 5 * time.Second
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	scrape := func() string {
		raw, err := c.PrometheusMetrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateExposition(raw); err != nil {
			t.Fatalf("scrape invalid: %v", err)
		}
		return string(raw)
	}
	const planHit, planMiss = `engine_cache_kind_ops{kind="sample",op="hit"}`, `engine_cache_kind_ops{kind="sample",op="miss"}`
	before := scrape()

	first := driveSession(t, c, v, 35)
	defer c.Close(ctx, first)
	mid := scrape()
	if d := promSample(mid, planMiss) - max(promSample(before, planMiss), 0); d <= 0 {
		t.Errorf("first session planned no samples through the cache: %s moved by %v", planMiss, d)
	}
	second := driveSession(t, c, v, 35)
	defer c.Close(ctx, second)
	after := scrape()
	if d := promSample(after, planHit) - max(promSample(mid, planHit), 0); d <= 0 {
		t.Errorf("second session hit no memoized plan: %s moved by %v", planHit, d)
	}
	for _, series := range []string{
		`engine_cache_kind_ops{kind="count",op="hit"}`,
		`engine_cache_kind_ops{kind="count",op="miss"}`,
	} {
		if promSample(after, series) <= 0 {
			t.Errorf("/metrics: %s = %v, want > 0", series, promSample(after, series))
		}
	}

	events, err := c.Events(ctx, second)
	if err != nil {
		t.Fatal(err)
	}
	var planHits int64
	for _, ev := range events {
		if ev.CachePlanHits > ev.CacheHits {
			t.Errorf("iteration %d: %d plan hits out of %d cache hits", ev.Iteration, ev.CachePlanHits, ev.CacheHits)
		}
		planHits += ev.CachePlanHits
	}
	if planHits == 0 {
		t.Errorf("second session's %d flight events record no plan hits", len(events))
	}
}

// TestCreateLatencyMetricsExposed: session creation is a user-visible
// wait (clustering discovery fits its k-means hierarchy inside it), so a
// clustering-discovery create must show up on /v1/metrics as
// explore.new_session_seconds and kmeans.cluster_seconds observations.
func TestCreateLatencyMetricsExposed(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	// The registry is process-wide: compare counts around the create.
	counts := func() (newSession, cluster float64) {
		t.Helper()
		m, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		count := func(name string) float64 {
			h, _ := m[name].(map[string]any)
			n, _ := h["count"].(float64)
			return n
		}
		return count("explore.new_session_seconds"), count("kmeans.cluster_seconds")
	}
	sessBefore, clusterBefore := counts()
	id, err := c.CreateSession(ctx, CreateSessionRequest{View: "uniform", Discovery: "clustering", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(ctx, id)
	sessAfter, clusterAfter := counts()
	if sessAfter <= sessBefore {
		t.Errorf("explore.new_session_seconds count %v -> %v, want an increase", sessBefore, sessAfter)
	}
	if clusterAfter <= clusterBefore {
		t.Errorf("kmeans.cluster_seconds count %v -> %v, want an increase", clusterBefore, clusterAfter)
	}
}

func TestHealthzAndViewsMetadata(t *testing.T) {
	srv, v := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	infos, err := c.Views(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("views = %+v", infos)
	}
	if infos[0].Name != "uniform" || infos[0].Rows != v.NumRows() {
		t.Errorf("view info = %+v", infos[0])
	}
	if len(infos[0].Attrs) != 2 || infos[0].Attrs[0] != "a0" {
		t.Errorf("view attrs = %v", infos[0].Attrs)
	}
}

func TestSessionJanitor(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	id, err := c.CreateSession(ctx, CreateSessionRequest{View: "uniform", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Fresh sessions survive a long-TTL sweep.
	if n := srv.ExpireIdle(time.Hour); n != 0 {
		t.Errorf("expired %d fresh sessions", n)
	}
	if _, err := c.Status(ctx, id); err != nil {
		t.Errorf("session gone after no-op sweep: %v", err)
	}

	// A zero TTL makes everything idle: the session must be evicted and
	// its goroutine unblocked (cancelled).
	before := obsSessionsExpired.Value()
	if n := srv.ExpireIdle(0); n != 1 {
		t.Fatalf("expired %d sessions, want 1", n)
	}
	if got := obsSessionsExpired.Value(); got != before+1 {
		t.Errorf("sessions_expired went %d -> %d", before, got)
	}
	if _, err := c.Status(ctx, id); err == nil {
		t.Error("evicted session still reachable")
	}

	// The background janitor does the same on a timer.
	id2, err := c.CreateSession(ctx, CreateSessionRequest{View: "uniform", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv.SessionTTL = time.Nanosecond
	jctx, jcancel := context.WithCancel(context.Background())
	defer jcancel()
	srv.StartJanitor(jctx, 5*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := c.Status(ctx, id2); err != nil {
			return // evicted
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Error("janitor never evicted the idle session")
}

func TestRequestLogMiddleware(t *testing.T) {
	srv, _ := newTestServer(t)
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	ts := httptest.NewServer(WithRequestLog(logger, srv))
	defer ts.Close()

	// A generated request id is echoed back and logged.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	genID := resp.Header.Get("X-Request-ID")
	if genID == "" {
		t.Fatal("no X-Request-ID assigned")
	}

	// A caller-supplied id is preserved.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/views", nil)
	req.Header.Set("X-Request-ID", "my-id-42")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "my-id-42" {
		t.Errorf("request id = %q, want my-id-42", got)
	}

	// Log lines are JSON with the expected fields.
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2:\n%s", len(lines), logBuf.String())
	}
	var entry map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &entry); err != nil {
		t.Fatalf("log line not JSON: %v", err)
	}
	if entry["request_id"] != "my-id-42" || entry["path"] != "/v1/views" ||
		entry["method"] != http.MethodGet || entry["status"] != float64(200) {
		t.Errorf("log entry = %v", entry)
	}
}

// TestMiddlewareSharesOneStatusWriter checks the chain wraps the writer
// once per request, that the shared wrapper still shows the outer layer
// the status an inner handler wrote, and that http.ResponseController
// reaches the connection through it.
func TestMiddlewareSharesOneStatusWriter(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw, ok := w.(*statusWriter)
		if !ok {
			t.Errorf("handler got a %T, want the chain's *statusWriter", w)
		} else if _, nested := sw.ResponseWriter.(*statusWriter); nested {
			t.Error("statusWriter wraps another statusWriter")
		}
		if err := http.NewResponseController(w).SetWriteDeadline(time.Now().Add(time.Minute)); err != nil {
			t.Errorf("ResponseController through statusWriter: %v", err)
		}
		w.WriteHeader(http.StatusTeapot)
	})
	ts := httptest.NewServer(WithRequestLog(logger, WithRecovery(logger, inner)))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(logBuf.String(), `"status":418`) {
		t.Errorf("request log missed the inner status: %s", logBuf.String())
	}
}

func TestStatusWriterCapturesErrors(t *testing.T) {
	// An error response increments service.http.errors.
	tab := dataset.GenerateUniform(1_000, 2, 1)
	v, err := engine.NewView(tab, []string{"a0", "a1"})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(map[string]*engine.View{"u": v})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	before := obsHTTPErrors.Value()
	resp, err := ts.Client().Get(ts.URL + "/bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := obsHTTPErrors.Value(); got != before+1 {
		t.Errorf("http.errors went %d -> %d, want +1", before, got)
	}
}
