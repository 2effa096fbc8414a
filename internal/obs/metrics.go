// Package obs is the observability substrate of the AIDE reproduction:
// a lock-cheap metrics registry (counters, gauges, fixed-bucket latency
// histograms) plus a per-session span tracer (trace.go). The paper's
// claims are about where time and samples go — per-iteration exploration
// overhead, query execution cost, labeling effort (Sections 6.3-6.4) —
// and this package is how the running system exposes those quantities.
//
// All hot-path operations are single atomic instructions; registry
// lookups happen once at package init of the instrumented packages.
// Output is expvar-flavored JSON: a flat object mapping metric names to
// values, histograms rendering as {count, sum, p50, p95, p99} summaries.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 that can move in both directions (in-flight
// requests, current F-measure, active sessions).
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add moves the gauge by delta (CAS loop; gauges are not hot-path).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefaultLatencyBuckets are the histogram bucket upper bounds used for
// latency metrics, in seconds: 10µs to 10s, roughly exponential.
var DefaultLatencyBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with atomic per-bucket counts.
// Observations above the last bucket bound land in an overflow bucket.
type Histogram struct {
	bounds []float64      // ascending upper bounds
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram creates a histogram over the given ascending bucket upper
// bounds (nil: DefaultLatencyBuckets). A trailing +Inf bound is dropped:
// it duplicates the implicit overflow bucket, and keeping it would both
// render a duplicate le="+Inf" exposition series and poison quantile
// interpolation.
func NewHistogram(bounds []float64) *Histogram {
	for len(bounds) > 0 && math.IsInf(bounds[len(bounds)-1], 1) {
		bounds = bounds[:len(bounds)-1]
	}
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Buckets returns the bucket upper bounds and the per-bucket counts;
// counts has one extra trailing element for the overflow (+Inf) bucket.
// The counts are a snapshot copy.
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.bounds, counts
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// inside the bucket holding the target rank. It returns 0 for an empty
// histogram; ranks in the overflow bucket return the last bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := 0.0
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			cum += n
			continue
		}
		if cum+n >= rank {
			if i == len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - cum) / n
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// HistogramSummary is the JSON rendering of a histogram.
type HistogramSummary struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Summary returns count, sum and the p50/p95/p99 estimates.
func (h *Histogram) Summary() HistogramSummary {
	return HistogramSummary{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// Registry holds named metrics. Lookups take a lock; instrumented
// packages resolve their metrics once and then touch only atomics.
type Registry struct {
	mu          sync.RWMutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	hists       map[string]*Histogram
	counterVecs map[string]*CounterVec
	gaugeVecs   map[string]*GaugeVec
	histVecs    map[string]*HistogramVec
	collectors  []func(*Registry)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    make(map[string]*Counter),
		gauges:      make(map[string]*Gauge),
		hists:       make(map[string]*Histogram),
		counterVecs: make(map[string]*CounterVec),
		gaugeVecs:   make(map[string]*GaugeVec),
		histVecs:    make(map[string]*HistogramVec),
	}
}

// RegisterCollector adds a scrape-time callback: every Snapshot,
// WriteJSON and WritePrometheus first runs the collectors, which update
// gauges/histograms that are cheaper to read on demand than to maintain
// continuously (the Go runtime stats, occupancy gauges). Collectors run
// outside the registry lock and must be safe for concurrent calls.
func (r *Registry) RegisterCollector(fn func(*Registry)) {
	if fn == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// collect runs the registered scrape-time collectors.
func (r *Registry) collect() {
	r.mu.RLock()
	fns := r.collectors
	r.mu.RUnlock()
	for _, fn := range fns {
		fn(r)
	}
}

// Default is the process-wide registry the instrumented packages use.
var Default = NewRegistry()

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with
// DefaultLatencyBuckets if needed.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramBuckets(name, nil)
}

// HistogramBuckets returns the named histogram, creating it over the
// given bucket bounds if needed (nil: DefaultLatencyBuckets). An
// existing histogram keeps its original buckets.
func (r *Registry) HistogramBuckets(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// GetCounter returns the named counter from the Default registry.
func GetCounter(name string) *Counter { return Default.Counter(name) }

// GetGauge returns the named gauge from the Default registry.
func GetGauge(name string) *Gauge { return Default.Gauge(name) }

// GetHistogram returns the named histogram from the Default registry.
func GetHistogram(name string) *Histogram { return Default.Histogram(name) }

// Snapshot returns every metric's current value keyed by name: int64 for
// counters, float64 for gauges, HistogramSummary for histograms. Labeled
// series render under `name{label="value"}` keys. Registered collectors
// run first so scrape-time gauges are fresh.
func (r *Registry) Snapshot() map[string]any {
	r.collect()
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name] = h.Summary()
	}
	for name, cv := range r.counterVecs {
		for _, s := range cv.v.snapshot() {
			out[seriesKey(name, cv.v.label, s.value)] = s.metric.Value()
		}
	}
	for name, gv := range r.gaugeVecs {
		for _, s := range gv.v.snapshot() {
			out[seriesKey(name, gv.v.label, s.value)] = s.metric.Value()
		}
	}
	for name, hv := range r.histVecs {
		for _, s := range hv.v.snapshot() {
			out[seriesKey(name, hv.v.label, s.value)] = s.metric.Summary()
		}
	}
	return out
}

// seriesKey renders one labeled series' JSON key.
func seriesKey(name, label, value string) string {
	same := func(s string) string { return s }
	return name + "{" + labelSet(label, value, same, same) + "}"
}

// WriteJSON writes the registry as expvar-flavored JSON: one flat object
// with metric names as keys, sorted for stable output.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	if _, err := fmt.Fprint(w, "{"); err != nil {
		return err
	}
	for i, name := range names {
		sep := ",\n"
		if i == 0 {
			sep = "\n"
		}
		val, err := json.Marshal(snap[name])
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%q: %s", sep, name, val); err != nil {
			return err
		}
	}
	_, err := fmt.Fprint(w, "\n}\n")
	return err
}

// Handler returns an http.Handler serving WriteJSON, the /debug/vars
// equivalent for this registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = r.WriteJSON(w)
	})
}
