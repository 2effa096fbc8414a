package main

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/explore-by-example/aide/internal/obs"
	"github.com/explore-by-example/aide/internal/service"
)

// TestTelemetrySmoke is the CI observability gate: boot a real
// aideserver, run a short exploration, scrape /metrics and validate the
// Prometheus exposition, check the SLO endpoint, and assert the
// flight-recorder journal on disk is well-formed JSONL.
func TestTelemetrySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes")
	}
	dataDir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	_, url := startChild(t, dataDir, "telemetry")
	c := service.NewClient(url, nil)

	const labels = 15
	id, err := c.CreateSession(ctx, service.CreateSessionRequest{
		View: "sdss", Seed: 3, SamplesPerIteration: 5, MaxIterations: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < labels; i++ {
		sample, err := c.NextSample(ctx, id)
		if err != nil {
			t.Fatalf("label %d: NextSample: %v", i, err)
		}
		relevant := int(sample.Values["rowc"])%3 == 0
		if err := c.SubmitLabel(ctx, id, sample.Row, relevant); err != nil {
			t.Fatalf("label %d: SubmitLabel: %v", i, err)
		}
	}

	// Scrape the Prometheus endpoint and validate the exposition format.
	raw, err := c.PrometheusMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(raw); err != nil {
		t.Fatalf("/metrics exposition invalid: %v", err)
	}

	// The JSON snapshot answers too, with the runtime gauges present.
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if g, ok := m["go_goroutines"].(float64); !ok || g < 1 {
		t.Errorf("go_goroutines = %v, want >= 1", m["go_goroutines"])
	}

	// The client lived on its keep-alive connection: every label was a
	// request, and the server accepted next to no connections for them.
	// Both expositions say so.
	for _, view := range []struct {
		name             string
		accepted, labels float64
	}{
		{"/v1/metrics", jsonValue(m, "service.http.connections_accepted"), jsonValue(m, "service.http.requests.label")},
		{"/metrics", promValue(raw, "service_http_connections_accepted"), promValue(raw, "service_http_requests_label")},
	} {
		if view.accepted < 1 || view.accepted > 2 || view.labels < labels {
			t.Errorf("%s: %v connections accepted for %v label requests, want 1-2 for >= %d",
				view.name, view.accepted, view.labels, labels)
		}
	}

	// The SLO monitor is on by default and healthy under this traffic.
	slo, err := c.SLO(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !slo.Healthy || slo.Latency.Long.Total == 0 {
		t.Errorf("slo = %+v, want healthy with recorded requests", slo)
	}

	// The events endpoint streams the retained flight events.
	events, err := c.Events(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no flight events recorded")
	}

	// The journal on disk (next to the WAL) is well-formed JSONL.
	path := filepath.Join(dataDir, id+".events.jsonl")
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("flight journal missing: %v", err)
	}
	fromDisk, err := obs.ReadJournal(f)
	f.Close()
	if err != nil {
		t.Fatalf("flight journal malformed: %v", err)
	}
	if len(fromDisk) < len(events) {
		t.Errorf("journal holds %d events, endpoint served %d", len(fromDisk), len(events))
	}
	for _, ev := range fromDisk {
		if ev.Schema != obs.FlightEventSchema || ev.Session != id {
			t.Fatalf("journal event not stamped: %+v", ev)
		}
	}

	if err := c.Close(ctx, id); err != nil {
		t.Fatal(err)
	}
}

// jsonValue reads one number of the /v1/metrics snapshot, -1 if absent.
func jsonValue(m map[string]any, name string) float64 {
	if v, ok := m[name].(float64); ok {
		return v
	}
	return -1
}

// promValue reads one unlabeled sample of a Prometheus exposition, -1
// if absent.
func promValue(exposition []byte, series string) float64 {
	for _, line := range strings.Split(string(exposition), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			if v, err := strconv.ParseFloat(rest, 64); err == nil {
				return v
			}
		}
	}
	return -1
}
