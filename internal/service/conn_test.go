package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/explore-by-example/aide/internal/faultinject"
	"github.com/explore-by-example/aide/internal/geom"
)

// countConns returns the server's ConnState hook wrapped so the test
// also sees how many connections it accepted.
func countConns(accepted *atomic.Int64) func(net.Conn, http.ConnState) {
	return func(c net.Conn, st http.ConnState) {
		ConnState(c, st)
		if st == http.StateNew {
			accepted.Add(1)
		}
	}
}

// benchmarkClient builds a client the way benchmark/drive.go does: its
// own transport holding one idle connection, retries off.
func benchmarkClient(base string) *Client {
	c := NewClient(base, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	c.MaxRetries = -1
	return c
}

// TestClientReusesOneConnection drives every Client method through one
// session and checks the server accepted a single connection: doOnce
// must hand every response — bodies it ignores, decoded JSON with a
// chunked tail, error bodies — back to the transport read to EOF.
func TestClientReusesOneConnection(t *testing.T) {
	srv, v := newTestServer(t)
	huge := strings.Repeat("x", 16*maxTailBytes)
	mux := http.NewServeMux()
	mux.Handle("/", srv)
	mux.HandleFunc("/huge", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
		io.WriteString(w, `{"error":"`+huge+`"}`)
	})
	var accepted atomic.Int64
	ts := httptest.NewUnstartedServer(mux)
	ts.Config.ConnState = countConns(&accepted)
	acceptedBefore, openBefore := obsConnsAccepted.Value(), obsConnsOpen.Value()
	ts.Start()
	defer ts.Close()

	c := benchmarkClient(ts.URL)
	c.MaxRetries, c.BaseBackoff = 8, time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}

	id, err := c.CreateSession(ctx, CreateSessionRequest{
		View: "uniform", Seed: 7, SamplesPerIteration: 10, MaxIterations: 30,
	})
	must("create", err)
	if n := labelLoop(t, c, ctx, id, v, geom.R(30, 45, 50, 65), 200); n != 200 {
		t.Fatalf("session ended after %d labels, want 200", n)
	}
	if got := accepted.Load(); got != 1 {
		t.Fatalf("server accepted %d connections for 200 samples and labels, want 1", got)
	}
	if got := obsConnsAccepted.Value() - acceptedBefore; got != 1 {
		t.Errorf("service.http.connections_accepted moved by %d, want 1", got)
	}
	if got := obsConnsOpen.Value() - openBefore; got != 1 {
		t.Errorf("service.http.connections_open moved by %v mid-session, want 1", got)
	}

	sample, err := c.NextSample(ctx, id)
	must("sample", err)
	for _, tc := range []struct {
		name    string
		call    func() error
		wantErr string // "" = success
		conns   int64  // connections accepted once the call returned
	}{
		{"status", func() error { _, err := c.Status(ctx, id); return err }, "", 1},
		{"query", func() error { _, err := c.PredictedQuery(ctx, id); return err }, "", 1},
		{"trace", func() error { _, err := c.Trace(ctx, id); return err }, "", 1},
		{"events", func() error { _, err := c.Events(ctx, id); return err }, "", 1},
		{"metrics", func() error { _, err := c.Metrics(ctx); return err }, "", 1},
		{"prometheus", func() error { _, err := c.PrometheusMetrics(ctx); return err }, "", 1},
		{"views", func() error { _, err := c.Views(ctx); return err }, "", 1},
		{"slo", func() error { _, err := c.SLO(ctx); return err }, "", 1},
		{"health", func() error { return c.Health(ctx) }, "", 1},
		{"409 label for the wrong row",
			func() error { return c.SubmitLabel(ctx, id, sample.Row+1, true) },
			"outstanding sample is row", 1},
		{"404 unknown session",
			func() error { _, err := c.Status(ctx, "nope"); return err },
			"service: GET /v1/sessions/nope/status: no such session", 1},
		{"503 with Retry-After, retried", func() error {
			// Seed 2 draws a fault, then a pass: the call sees one 503
			// (Retry-After: 1, so it sleeps a second) and do retries it.
			inj := faultinject.New(faultinject.Config{Seed: 2, ErrorRate: 0.5,
				Points: []string{"service.request"}})
			faultinject.Activate(inj)
			defer faultinject.Deactivate()
			_, err := c.Status(ctx, id)
			if errs, _, _, _ := inj.Counts(); errs != 1 {
				return fmt.Errorf("%d 503s were injected, want 1", errs)
			}
			return err
		}, "", 1},
		{"chunked JSON response", func() error {
			resp, err := c.http.Get(ts.URL + "/v1/metrics")
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.ContentLength != -1 {
				return errors.New("/v1/metrics answered with a Content-Length; the case needs a chunked body")
			}
			_, err = c.Metrics(ctx)
			return err
		}, "", 1},
		{"oversized error body costs its connection",
			func() error { return c.do(ctx, http.MethodGet, "/huge", nil, nil) },
			"service: GET /huge: 502 Bad Gateway", 1},
		{"and only that one",
			func() error { return c.Health(ctx) },
			"", 2},
	} {
		err := tc.call()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		case err != nil && len(err.Error()) > 200:
			t.Errorf("%s: error string of %d bytes, want it bounded", tc.name, len(err.Error()))
		}
		if got := accepted.Load(); got != tc.conns {
			t.Fatalf("%s: server has accepted %d connections, want %d", tc.name, got, tc.conns)
		}
	}

	must("delete", c.Close(ctx, id))
	if got := accepted.Load(); got != 2 {
		t.Errorf("server accepted %d connections in all, want 2", got)
	}
	c.http.CloseIdleConnections()
	ts.Close()
	for deadline := time.Now().Add(5 * time.Second); obsConnsOpen.Value() != openBefore; {
		if time.Now().After(deadline) {
			t.Fatalf("service.http.connections_open = %v after shutdown, want %v", obsConnsOpen.Value(), openBefore)
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkStepLoopback is the leaf under the repo benchmark's
// step_p50_ms: one label + next-sample step over a real loopback
// listener, through aideserver's middleware chain and default timeouts
// with the access log going to a file, from a client built like the
// benchmark's. One op is a whole 40-iteration session; the per-step
// figures are reported as extra metrics. It fails when a step opens a
// connection: the client is meant to live on one.
func BenchmarkStepLoopback(b *testing.B) {
	srv, v := newTestServer(b)
	logFile, err := os.Create(filepath.Join(b.TempDir(), "access.log"))
	if err != nil {
		b.Fatal(err)
	}
	defer logFile.Close()
	logger := slog.New(slog.NewTextHandler(logFile, nil))
	var accepted atomic.Int64
	httpSrv := &http.Server{
		Handler:           WithRequestLog(logger, WithRecovery(logger, WithDeadline(time.Minute, srv))),
		ReadTimeout:       time.Minute,
		WriteTimeout:      2 * time.Minute,
		ReadHeaderTimeout: 10 * time.Second,
		ConnState:         countConns(&accepted),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()

	c := benchmarkClient("http://" + ln.Addr().String())
	defer c.http.CloseIdleConnections()
	ctx := context.Background()
	target := geom.R(30, 45, 50, 65)
	session := func() (steps int) {
		id, err := c.CreateSession(ctx, CreateSessionRequest{
			View: "uniform", Seed: 7, SamplesPerIteration: 20, MaxIterations: 40,
		})
		if err != nil {
			b.Fatal(err)
		}
		sample, err := c.NextSample(ctx, id)
		for ; err == nil; steps++ {
			p := v.Normalizer().ToNorm(geom.Point{sample.Values["a0"], sample.Values["a1"]})
			if err = c.SubmitLabel(ctx, id, sample.Row, target.Contains(p)); err == nil {
				sample, err = c.NextSample(ctx, id)
			}
		}
		if !errors.Is(err, ErrSessionDone) {
			b.Fatal(err)
		}
		if err := c.Close(ctx, id); err != nil {
			b.Fatal(err)
		}
		return steps
	}

	session() // warm-up: dials the connection, fills the predicate cache
	connsBefore := accepted.Load()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocsBefore := ms.Mallocs
	steps := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steps += session()
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	conns := accepted.Load() - connsBefore
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
	b.ReportMetric(float64(ms.Mallocs-mallocsBefore)/float64(steps), "allocs/step")
	b.ReportMetric(float64(conns)/float64(steps), "conns/step")
	if conns > 0 {
		b.Fatalf("%d connections opened over %d steps after warm-up; the client must reuse one", conns, steps)
	}
}
