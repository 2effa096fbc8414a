package obs

import (
	"sort"
	"sync"
)

// MaxLabelValues bounds the cardinality of one labeled metric vector:
// beyond this many distinct label values, further values collapse into
// the OverflowLabel series. The bound keeps a buggy or adversarial
// caller (e.g. one labeling by session id) from growing the registry —
// and every scrape — without limit. Instrumented packages use a handful
// of fixed values (phases, cache ops, pool states, endpoints), far
// below the cap.
const MaxLabelValues = 64

// OverflowLabel is the label value that absorbs observations once a
// vector hits MaxLabelValues distinct values.
const OverflowLabel = "other"

// series is one labeled child's identity inside a vector.
type series[T any] struct {
	value  string
	metric *T
}

// vec is the shared implementation of the three metric vectors: a
// bounded map from label value to child metric. With is an RLock + map
// hit on the steady state; instrumented code resolves its children once
// at init and then touches only the child's atomics, so vectors add
// nothing to hot paths.
type vec[T any] struct {
	name  string
	label string
	mu    sync.RWMutex
	kids  map[string]*T
	make  func() *T
}

func newVec[T any](name, label string, mk func() *T) *vec[T] {
	return &vec[T]{name: name, label: label, kids: make(map[string]*T), make: mk}
}

// with returns the child for the given label value, creating it if the
// cardinality bound allows; past the bound the overflow child absorbs
// the value.
func (v *vec[T]) with(value string) *T {
	v.mu.RLock()
	m := v.kids[value]
	v.mu.RUnlock()
	if m != nil {
		return m
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if m = v.kids[value]; m != nil {
		return m
	}
	if len(v.kids) >= MaxLabelValues && value != OverflowLabel {
		if m = v.kids[OverflowLabel]; m != nil {
			return m
		}
		value = OverflowLabel
	}
	m = v.make()
	v.kids[value] = m
	return m
}

// snapshot returns the children sorted by label value.
func (v *vec[T]) snapshot() []series[T] {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]series[T], 0, len(v.kids))
	for val, m := range v.kids {
		out = append(out, series[T]{value: val, metric: m})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].value < out[j].value })
	return out
}

// CounterVec is a family of counters distinguished by one label, e.g.
// engine_cache_ops{op="hit"|"miss"|"evict"}. A label naming several
// comma-separated keys ("kind,op") makes a multi-label family whose
// values are given the same way ("count,hit").
type CounterVec struct{ v *vec[Counter] }

// With returns the counter for the given label value. Resolve once and
// keep the pointer on hot paths.
func (c *CounterVec) With(value string) *Counter { return c.v.with(value) }

// GaugeVec is a family of gauges distinguished by one label, e.g.
// par_pool{state="queued"|"running"}.
type GaugeVec struct{ v *vec[Gauge] }

// With returns the gauge for the given label value.
func (g *GaugeVec) With(value string) *Gauge { return g.v.with(value) }

// HistogramVec is a family of histograms distinguished by one label,
// e.g. aide_iteration_seconds{phase="discovery"}. All children share
// the vector's bucket bounds.
type HistogramVec struct {
	v      *vec[Histogram]
	bounds []float64
}

// With returns the histogram for the given label value.
func (h *HistogramVec) With(value string) *Histogram { return h.v.with(value) }

// CounterVec returns the named counter vector with the given label key,
// creating it if needed. A name registers at most one label key; later
// calls reuse the first registration's key.
func (r *Registry) CounterVec(name, label string) *CounterVec {
	r.mu.RLock()
	cv := r.counterVecs[name]
	r.mu.RUnlock()
	if cv != nil {
		return cv
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cv = r.counterVecs[name]; cv == nil {
		cv = &CounterVec{v: newVec(name, label, func() *Counter { return &Counter{} })}
		r.counterVecs[name] = cv
	}
	return cv
}

// GaugeVec returns the named gauge vector with the given label key.
func (r *Registry) GaugeVec(name, label string) *GaugeVec {
	r.mu.RLock()
	gv := r.gaugeVecs[name]
	r.mu.RUnlock()
	if gv != nil {
		return gv
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if gv = r.gaugeVecs[name]; gv == nil {
		gv = &GaugeVec{v: newVec(name, label, func() *Gauge { return &Gauge{} })}
		r.gaugeVecs[name] = gv
	}
	return gv
}

// HistogramVec returns the named histogram vector with the given label
// key, children bucketed by bounds (nil: DefaultLatencyBuckets).
func (r *Registry) HistogramVec(name, label string, bounds []float64) *HistogramVec {
	r.mu.RLock()
	hv := r.histVecs[name]
	r.mu.RUnlock()
	if hv != nil {
		return hv
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if hv = r.histVecs[name]; hv == nil {
		if len(bounds) == 0 {
			bounds = DefaultLatencyBuckets
		}
		b := make([]float64, len(bounds))
		copy(b, bounds)
		hv = &HistogramVec{bounds: b}
		hv.v = newVec(name, label, func() *Histogram { return NewHistogram(hv.bounds) })
		r.histVecs[name] = hv
	}
	return hv
}

// GetCounterVec returns the named counter vector from the Default
// registry.
func GetCounterVec(name, label string) *CounterVec { return Default.CounterVec(name, label) }

// GetGaugeVec returns the named gauge vector from the Default registry.
func GetGaugeVec(name, label string) *GaugeVec { return Default.GaugeVec(name, label) }

// GetHistogramVec returns the named histogram vector from the Default
// registry with DefaultLatencyBuckets.
func GetHistogramVec(name, label string) *HistogramVec {
	return Default.HistogramVec(name, label, nil)
}
