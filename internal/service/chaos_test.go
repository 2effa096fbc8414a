package service

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/faultinject"
	"github.com/explore-by-example/aide/internal/geom"
)

// chaosSeed returns the fault-injection seed, from AIDE_FAULT_SEED when
// the CI matrix sets it.
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

// driveSession plays the HTTP user: label every proposed sample by
// whether it falls in target, until the session reports done or
// maxLabels is reached. Label submissions are retried a few times
// because injected WAL faults can fail an individual persist.
func labelLoop(t *testing.T, c *Client, ctx context.Context, id string, v *engine.View, target geom.Rect, maxLabels int) int {
	t.Helper()
	labeled := 0
	for labeled < maxLabels {
		sample, err := c.NextSample(ctx, id)
		if errors.Is(err, ErrSessionDone) {
			break
		}
		if err != nil {
			t.Fatalf("after %d labels: NextSample: %v", labeled, err)
		}
		p := geom.Point{sample.Values["a0"], sample.Values["a1"]}
		relevant := target.Contains(v.Normalizer().ToNorm(p))
		var lerr error
		for attempt := 0; attempt < 6; attempt++ {
			if lerr = c.SubmitLabel(ctx, id, sample.Row, relevant); lerr == nil {
				break
			}
		}
		if lerr != nil {
			t.Fatalf("after %d labels: SubmitLabel: %v", labeled, lerr)
		}
		labeled++
	}
	return labeled
}

// queriesEqual compares predicted queries area by area, bound by bound.
func queriesEqual(a, b QueryResponse) bool {
	if a.SQL != b.SQL || len(a.Areas) != len(b.Areas) {
		return false
	}
	for i := range a.Areas {
		if len(a.Areas[i]) != len(b.Areas[i]) {
			return false
		}
		for d := range a.Areas[i] {
			if a.Areas[i][d] != b.Areas[i][d] {
				return false
			}
		}
	}
	return true
}

// TestChaosBitIdenticalUnderFaults runs one full exploration fault-free,
// then reruns it with injected 503s, latency, engine panics and WAL
// short writes, and requires the final predicted query to be
// bit-identical: retries, panic-rebuild replay and WAL append repair
// must be invisible to the exploration's outcome.
func TestChaosBitIdenticalUnderFaults(t *testing.T) {
	tab := dataset.GenerateUniform(10_000, 2, 1)
	v, err := engine.NewView(tab, []string{"a0", "a1"})
	if err != nil {
		t.Fatal(err)
	}
	target := geom.R(30, 45, 50, 65)
	req := CreateSessionRequest{
		View:                "uniform",
		Seed:                7,
		SamplesPerIteration: 10,
		MaxIterations:       12,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	run := func(withFaults bool) QueryResponse {
		srv := NewServer(map[string]*engine.View{"uniform": v})
		srv.SampleWait = 5 * time.Second
		if withFaults {
			m, err := newTestDurable(t)
			if err != nil {
				t.Fatal(err)
			}
			srv.Durable = m
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()
		c := NewClient(ts.URL, nil)
		c.MaxRetries = 8 // drive the failure probability of a 503 streak to ~0
		c.BaseBackoff = time.Millisecond

		if withFaults {
			faultinject.Activate(faultinject.New(faultinject.Config{
				Seed:        chaosSeed(t),
				ErrorRate:   0.15,
				LatencyRate: 0.05,
				Latency:     time.Millisecond,
				PanicBudget: 2,
				PartialRate: 0.25,
			}))
			defer faultinject.Deactivate()
		}

		id, err := c.CreateSession(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if n := labelLoop(t, c, ctx, id, v, target, 200); n == 0 {
			t.Fatal("no samples served")
		}
		q, err := c.PredictedQuery(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		// The server must be alive and healthy after the storm.
		if err := c.Health(ctx); err != nil {
			t.Fatalf("health check after run: %v", err)
		}
		if err := c.Close(ctx, id); err != nil {
			t.Fatal(err)
		}
		return q
	}

	clean := run(false)
	faults := httpRequests("fault").Value()
	faulty := run(true)
	// The faulty run completed, so every injected 503 it met was retried;
	// it must have met one, or the faults never fired.
	if httpRequests("fault").Value() == faults {
		t.Fatal("the faulty run met no injected 503: nothing was retried")
	}
	if len(clean.Areas) == 0 {
		t.Fatal("fault-free run predicted nothing; target too hard for the budget")
	}
	if !queriesEqual(clean, faulty) {
		t.Errorf("predictions diverged under faults:\nclean:  %q\nfaulty: %q", clean.SQL, faulty.SQL)
	}
}

// TestChaosQuarantinePoisonedSession exhausts the panic-rebuild budget
// and checks the session is quarantined — 500s with the failure — while
// the server and other sessions keep working.
func TestChaosQuarantinePoisonedSession(t *testing.T) {
	srv, v := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	c.BaseBackoff = time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	faultinject.Activate(faultinject.New(faultinject.Config{
		Seed:        chaosSeed(t),
		PanicBudget: 1000, // never stops panicking: rebuilds cannot help
		Points:      []string{"engine.scan"},
	}))
	defer faultinject.Deactivate()

	id, err := c.CreateSession(ctx, CreateSessionRequest{View: "uniform", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The session goroutine panics on its first scan, rebuilds, panics
	// again, and quarantines. Wait for the failed mark.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := c.Status(ctx, id); err != nil {
			if !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("status error = %v, want the panic surfaced", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never quarantined")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Interactions answer 500 with the failure, not a hang.
	if _, err := c.NextSample(ctx, id); err == nil || !strings.Contains(err.Error(), "session failed") {
		t.Errorf("sample on quarantined session = %v, want failure", err)
	}
	// The server is alive; an unpoisoned session works next to the
	// quarantined one once the injector is off.
	faultinject.Deactivate()
	if err := c.Health(ctx); err != nil {
		t.Fatalf("server unhealthy after quarantine: %v", err)
	}
	id2, err := c.CreateSession(ctx, CreateSessionRequest{View: "uniform", Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n := labelLoop(t, c, ctx, id2, v, geom.R(30, 45, 50, 65), 10); n == 0 {
		t.Error("healthy session served no samples")
	}
	// The poisoned session can still be discarded.
	if err := c.Close(ctx, id); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(ctx, id2); err != nil {
		t.Fatal(err)
	}
}
