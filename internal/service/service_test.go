package service

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/geom"
)

// newTestServer builds a server over a small uniform view.
func newTestServer(t testing.TB) (*Server, *engine.View) {
	t.Helper()
	tab := dataset.GenerateUniform(10_000, 2, 1)
	v, err := engine.NewView(tab, []string{"a0", "a1"})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(map[string]*engine.View{"uniform": v})
	s.SampleWait = 5 * time.Second
	return s, v
}

func TestFullSessionOverHTTP(t *testing.T) {
	srv, v := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	views, err := c.ViewNames(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 || views[0] != "uniform" {
		t.Errorf("views = %v", views)
	}

	id, err := c.CreateSession(ctx, CreateSessionRequest{
		View:                "uniform",
		Seed:                7,
		SamplesPerIteration: 10,
		MaxIterations:       25,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The hidden interest the HTTP "user" labels against.
	target := geom.R(30, 45, 50, 65)
	labeled := 0
	for labeled < 200 {
		sample, err := c.NextSample(ctx, id)
		if errors.Is(err, ErrSessionDone) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		p := geom.Point{sample.Values["a0"], sample.Values["a1"]}
		norm := v.Normalizer().ToNorm(p)
		if err := c.SubmitLabel(ctx, id, sample.Row, target.Contains(norm)); err != nil {
			t.Fatal(err)
		}
		labeled++
	}
	if labeled == 0 {
		t.Fatal("no samples served")
	}

	st, err := c.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalLabeled == 0 {
		t.Errorf("status = %+v", st)
	}

	q, err := c.PredictedQuery(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if q.Table != "uniform" {
		t.Errorf("query table = %q", q.Table)
	}
	if len(q.Areas) == 0 {
		t.Error("no predicted areas after 200 labels on an easy target")
	}
	if !strings.Contains(q.SQL, "SELECT * FROM uniform") {
		t.Errorf("SQL = %q", q.SQL)
	}

	if err := c.Close(ctx, id); err != nil {
		t.Fatal(err)
	}
	// Second delete: session is gone.
	if err := c.Close(ctx, id); err == nil {
		t.Error("deleting a deleted session should error")
	}
}

func TestCreateSessionValidation(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	if _, err := c.CreateSession(ctx, CreateSessionRequest{View: "nope"}); err == nil {
		t.Error("unknown view should error")
	}
	if _, err := c.CreateSession(ctx, CreateSessionRequest{View: "uniform", Discovery: "bogus"}); err == nil {
		t.Error("unknown discovery should error")
	}
	if _, err := c.CreateSession(ctx, CreateSessionRequest{View: "uniform", Discovery: "clustering", Seed: 3}); err != nil {
		t.Errorf("clustering discovery: %v", err)
	}
}

func TestLabelProtocolErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	id, err := c.CreateSession(ctx, CreateSessionRequest{View: "uniform", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(ctx, id)

	// Label before any sample was fetched.
	if err := c.SubmitLabel(ctx, id, 0, true); err == nil {
		t.Error("labeling without an outstanding sample should error")
	}
	sample, err := c.NextSample(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong row id.
	if err := c.SubmitLabel(ctx, id, sample.Row+999, true); err == nil {
		t.Error("labeling the wrong row should error")
	}
	// Correct row still works after the mismatch.
	if err := c.SubmitLabel(ctx, id, sample.Row, false); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownSessionAndEndpoints(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	if _, err := c.Status(ctx, "nosuch"); err == nil {
		t.Error("unknown session should error")
	}
	if _, err := c.NextSample(ctx, "nosuch"); err == nil {
		t.Error("unknown session should error")
	}
	resp, err := ts.Client().Get(ts.URL + "/bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("bogus path status = %d", resp.StatusCode)
	}
}

func TestSessionRunsToCompletion(t *testing.T) {
	// A tiny view exhausts quickly; the client must observe Done.
	tab := dataset.GenerateUniform(50, 2, 2)
	v, err := engine.NewView(tab, []string{"a0", "a1"})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(map[string]*engine.View{"tiny": v})
	srv.SampleWait = 5 * time.Second
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	id, err := c.CreateSession(ctx, CreateSessionRequest{View: "tiny", Seed: 1, MaxIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		sample, err := c.NextSample(ctx, id)
		if errors.Is(err, ErrSessionDone) {
			return // success
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SubmitLabel(ctx, id, sample.Row, false); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("session never reported done")
}

func TestDistanceHintPlumbing(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	ctx := context.Background()
	id, err := c.CreateSession(ctx, CreateSessionRequest{View: "uniform", Seed: 1, DistanceHint: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(ctx, id)
	// With a 10-unit hint, discovery starts at level with width <= 10
	// (level 2 for beta0=4): the first sample arrives fine.
	if _, err := c.NextSample(ctx, id); err != nil {
		t.Fatal(err)
	}
}
