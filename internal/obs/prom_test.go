package obs

import (
	"strings"
	"testing"
)

func TestWritePrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine.cache.hits").Add(5)
	r.Gauge("sessions.active").Set(2)
	r.HistogramBuckets("req.seconds", []float64{0.01, 0.1, 1}).Observe(0.05)
	r.CounterVec("cache_ops", "op").With("hit").Add(3)
	r.CounterVec("cache_ops", "op").With("miss").Add(1)
	r.HistogramVec("iter_seconds", "phase", []float64{0.1, 1}).With("discovery").Observe(0.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if err := ValidateExposition([]byte(out)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE engine_cache_hits counter",
		"engine_cache_hits 5",
		"# TYPE sessions_active gauge",
		"sessions_active 2",
		"# TYPE req_seconds histogram",
		`req_seconds_bucket{le="0.01"} 0`,
		`req_seconds_bucket{le="0.1"} 1`, // cumulative: the 0.05 obs
		`req_seconds_bucket{le="+Inf"} 1`,
		"req_seconds_count 1",
		`cache_ops{op="hit"} 3`,
		`cache_ops{op="miss"} 1`,
		`iter_seconds_bucket{phase="discovery",le="1"} 1`,
		`iter_seconds_sum{phase="discovery"} 0.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	for name, bad := range map[string]string{
		"duplicate series": "m 1\nm 2\n",
		"duplicate type":   "# TYPE m counter\n# TYPE m gauge\nm 1\n",
		"bad name":         "1bad 1\n",
		"bad value":        "m one\n",
		"bad type":         "# TYPE m widget\nm 1\n",
		"empty":            "",
	} {
		if err := ValidateExposition([]byte(bad)); err == nil {
			t.Errorf("%s: accepted %q", name, bad)
		}
	}
	good := "# TYPE m counter\nm 1\nm2{a=\"b\"} 2.5\n"
	if err := ValidateExposition([]byte(good)); err != nil {
		t.Errorf("rejected valid exposition: %v", err)
	}
}

// TestRuntimeMetricsExposed asserts the Go runtime gauges land in both
// renderings a monitoring stack consumes: the JSON snapshot
// (/v1/metrics) and the Prometheus exposition (/metrics), the GC
// percent the pacer chose among them.
func TestRuntimeMetricsExposed(t *testing.T) {
	r := NewRegistry()
	EnableRuntimeMetrics(r)
	snap := r.Snapshot()
	g, ok := snap["go_goroutines"].(float64)
	if !ok || g < 1 {
		t.Errorf("go_goroutines = %v, want >= 1", snap["go_goroutines"])
	}
	if h, ok := snap["go_memstats_heap_alloc_bytes"].(float64); !ok || h <= 0 {
		t.Errorf("go_memstats_heap_alloc_bytes = %v, want > 0", snap["go_memstats_heap_alloc_bytes"])
	}
	if p, ok := snap["go_gc_percent"].(float64); !ok || int(p) != GCPercent() {
		t.Errorf("go_gc_percent = %v, want the GC percent in force, %d", snap["go_gc_percent"], GCPercent())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE go_goroutines gauge",
		"# TYPE go_gc_pause_seconds histogram",
		"# TYPE go_gc_percent gauge",
		"go_memstats_heap_alloc_bytes",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}
