package engine

import (
	"strings"
	"sync"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/obs"
)

var (
	obsRegistryHits   = obs.GetCounter("engine.registry.hits")
	obsRegistryMisses = obs.GetCounter("engine.registry.misses")
	obsRegistryDrops  = obs.GetCounter("engine.registry.drops")
	obsRegistryViews  = obs.GetGauge("engine.registry.views")
)

// regKey identifies one shareable view: table content (fingerprint, not
// pointer — two loads of the same dataset share), the ordered
// exploration attributes, and the shard count (0 = unsharded). Shard
// timing knobs (deadline, hedge) are deliberately not part of the key:
// they are server-wide policy, and the first Acquire's values win for a
// shared view.
type regKey struct {
	table  uint64
	attrs  string
	shards int
}

// regEntry is one refcounted registry slot. ready closes when the build
// finishes; waiters then read view/err.
type regEntry struct {
	key   regKey
	refs  int
	ready chan struct{}
	view  *View
	err   error
}

// Registry is a refcounted, process-wide pool of shared Views. All
// sessions over the same (dataset, attrs) pair get one
// immutable View whose covering and grid indexes were built exactly
// once: after the first Acquire, creating a session costs O(1) instead
// of O(index build). Concurrent first Acquires are single-flighted —
// one caller builds, the rest wait for the same view.
//
// Acquire and Release bracket a view's use; when the last reference is
// released the view is dropped and the memory becomes collectable.
// Callers typically wrap the shared view per session (WithContext,
// WithCache and WithShardTracker are all cheap struct copies) but must
// pass the exact pointer Acquire returned back to Release.
type Registry struct {
	mu      sync.Mutex
	entries map[regKey]*regEntry
	byView  map[*View]*regEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		entries: make(map[regKey]*regEntry),
		byView:  make(map[*View]*regEntry),
	}
}

// SharedViews is the process-wide default registry, the one aideserver
// registers its datasets with.
var SharedViews = NewRegistry()

// Acquire returns the shared view over the named attributes of tab,
// building it on first use. Each successful call takes one reference
// that must be returned with Release.
func (r *Registry) Acquire(tab *dataset.Table, attrs []string) (*View, error) {
	return r.AcquireSharded(tab, attrs, ShardOptions{})
}

// AcquireSharded is Acquire for sharded views: the shared
// view scatters queries across opts.Shards cell-range shards
// (opts.Shards <= 0 builds the plain unsharded view). Sharding leaves
// the view's fingerprint unchanged — shard count is execution policy,
// not content — so durable logs recover against any shard count.
func (r *Registry) AcquireSharded(tab *dataset.Table, attrs []string, opts ShardOptions) (*View, error) {
	shards := opts.Shards
	if shards < 0 {
		shards = 0
	}
	key := regKey{table: TableFingerprint(tab), attrs: strings.Join(attrs, "\x00"), shards: shards}
	r.mu.Lock()
	if e, ok := r.entries[key]; ok {
		e.refs++
		r.mu.Unlock()
		<-e.ready
		if e.err != nil {
			// The builder already removed the failed entry; the bumped ref
			// dies with it.
			return nil, e.err
		}
		obsRegistryHits.Inc()
		return e.view, nil
	}
	e := &regEntry{key: key, refs: 1, ready: make(chan struct{})}
	r.entries[key] = e
	r.mu.Unlock()
	obsRegistryMisses.Inc()

	v, err := NewView(tab, attrs)
	if err == nil && shards > 0 {
		v = v.WithShards(opts)
	}
	r.mu.Lock()
	e.view, e.err = v, err
	if err != nil {
		delete(r.entries, key)
	} else {
		r.byView[v] = e
	}
	r.updateGauge()
	r.mu.Unlock()
	close(e.ready)
	return v, err
}

// Release returns one reference on a view obtained from Acquire. When
// the last reference goes, the view is dropped from the registry. It
// reports whether v was a registry view at all (false for views built
// directly with NewView — a convenience so shutdown paths can release
// unconditionally).
func (r *Registry) Release(v *View) bool {
	if v == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byView[v]
	if !ok {
		return false
	}
	e.refs--
	if e.refs <= 0 {
		delete(r.entries, e.key)
		delete(r.byView, v)
		obsRegistryDrops.Inc()
		r.updateGauge()
	}
	return true
}

// Len returns the number of live shared views.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Refs returns the reference count of the entry holding v (0 when v is
// not a registry view). Test and diagnostics hook.
func (r *Registry) Refs(v *View) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byView[v]; ok {
		return e.refs
	}
	return 0
}

// updateGauge mirrors the global registry's size into obs; callers hold
// r.mu. Private registries (tests, benchmarks) leave the gauge alone.
func (r *Registry) updateGauge() {
	if r == SharedViews {
		obsRegistryViews.Set(float64(len(r.entries)))
	}
}
