package engine

import (
	"container/list"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/obs"
)

// Process-wide cache metrics, aggregated across every Cache instance so
// /v1/metrics reflects total reuse regardless of how many caches exist.
// Per-cache numbers come from Cache.Stats.
var (
	obsCacheHits      = obs.GetCounter("engine.cache.hits")
	obsCacheMisses    = obs.GetCounter("engine.cache.misses")
	obsCacheEvictions = obs.GetCounter("engine.cache.evictions")

	// engine_cache_ops{op="hit"|"miss"|"evict"} is the labeled mirror of
	// the counters above for Prometheus consumers; children are resolved
	// once here so the hot path stays one extra atomic per op.
	obsCacheOpHit   = obs.GetCounterVec("engine_cache_ops", "op").With("hit")
	obsCacheOpMiss  = obs.GetCounterVec("engine_cache_ops", "op").With("miss")
	obsCacheOpEvict = obs.GetCounterVec("engine_cache_ops", "op").With("evict")

	// engine_cache_kind_ops{kind,op} splits the lookups by what was asked
	// for — a sample plan hit saves a grid pass, a count hit a sweep.
	// Indexed [cacheKind][0 hit, 1 miss].
	obsCacheKindOps = func() (out [3][2]*obs.Counter) {
		vec := obs.GetCounterVec("engine_cache_kind_ops", "kind,op")
		for k, kind := range []string{"count", "rows", "sample"} {
			out[k] = [2]*obs.Counter{vec.With(kind + ",hit"), vec.With(kind + ",miss")}
		}
		return out
	}()

	// Aggregate occupancy across every live Cache, maintained as deltas
	// on put/evict and exported as gauges at scrape time. A Cache dropped
	// without being emptied keeps its last occupancy counted — in the
	// server there is one long-lived cache per dataset, so in practice
	// the gauges track real memoized bytes/entries.
	cacheBytesTotal   atomic.Int64
	cacheEntriesTotal atomic.Int64
)

func init() {
	obs.Default.RegisterCollector(func(r *obs.Registry) {
		r.Gauge("engine.cache.bytes").Set(float64(cacheBytesTotal.Load()))
		r.Gauge("engine.cache.entries").Set(float64(cacheEntriesTotal.Load()))
	})
}

const (
	// cacheShardCount spreads the LRU over independently locked shards so
	// concurrent sessions over one shared view don't serialize on a single
	// mutex. Sharding is by rect hash, so a given rect always lands in the
	// same shard.
	cacheShardCount = 16

	// cacheQuantum is the grid rect endpoints snap to for HASHING ONLY:
	// near-identical floats land in the same bucket, where the exact
	// (bit-level) rect comparison decides whether the cached result
	// applies. Quantization never changes what a lookup returns — that
	// would break the cached-vs-uncached bit-identity guarantee — it only
	// co-locates near-misses so they overwrite each other instead of
	// piling up.
	cacheQuantum = 1e-6

	// minCacheBytes floors the budget so a Cache is never too small to
	// hold a single typical entry.
	minCacheBytes = 1 << 16
)

// cacheKind is the kind of result an entry memoizes; the values are the
// BatchKind of the sub-query that asks for it.
type cacheKind uint8

const (
	kindCount  = cacheKind(BatchCount)
	kindRows   = cacheKind(BatchRows)
	kindSample = cacheKind(BatchSample)
)

// cacheKey is the bucket address of one memoized result: the result kind
// plus the quantized rect hash (salted by shard partition). Two distinct
// rects may share a key (quantization or plain hash collision); the
// entry's exact rect and salt disambiguate at lookup.
type cacheKey struct {
	kind cacheKind
	hash uint64
}

// cacheEntry is one memoized result. rect is a private clone compared
// bit-for-bit on lookup; rows is a private copy, copied again on every
// hit, because RowsIn callers may mutate the returned slice; plan is a
// sample plan piece, immutable and handed out shared. salt is the shard
// partition the result belongs to (0 = whole view): a shard's entries
// answer only that shard's lookups, so partitions of one shared Cache
// never cross-contaminate.
type cacheEntry struct {
	key   cacheKey
	salt  uint64
	rect  geom.Rect
	count int
	rows  []int
	plan  *samplePiece
	size  int64
}

// entryOverhead is what an entry costs before its payload: the entry
// itself, its LRU list element and its table slot (key, element pointer
// and a word of bucket bookkeeping).
const entryOverhead = int64(unsafe.Sizeof(cacheEntry{}) + unsafe.Sizeof(list.Element{}) + unsafe.Sizeof(cacheKey{}) + 16)

// entrySize is the memory an entry retains, for the byte budget: the
// overhead above, the rect clone, and every array of its payload at its
// allocated capacity.
func entrySize(e *cacheEntry) int64 {
	n := entryOverhead + int64(cap(e.rect))*16 + int64(cap(e.rows))*8
	if p := e.plan; p != nil {
		n += int64(unsafe.Sizeof(*p)) + int64(cap(p.counts))*2 + int64(cap(p.big))*4 + int64(cap(p.rows))*4
	}
	return n
}

type cacheShard struct {
	mu    sync.Mutex
	lru   *list.List // front = most recently used
	table map[cacheKey]*list.Element
	bytes int64
}

// Cache is a bounded, sharded LRU memoizing Count and RowsIn results and
// sample plans on immutable views. Because views never change after
// construction, a cached result is exactly the result a fresh scan
// would produce, so cached and uncached runs are bit-identical — pinned
// by equivalence tests. A sample's rows are never cached — the draw is
// rng-driven — but the candidate layout it draws from depends on the
// rect alone, so that is memoized (as a compact plan, see samplePiece)
// and every session draws from it with its own rng.
//
// A Cache is safe for concurrent use and may back any number of views
// (attach with View.WithCache); sharing one Cache across all sessions
// over a dataset is what turns AIDE's heavily overlapping steering
// queries — grid-cell density counts during discovery, repeated
// evaluation scans — into cross-session cache hits.
type Cache struct {
	shardMax int64 // per-shard byte budget
	shards   [cacheShardCount]cacheShard

	hits      atomic.Int64
	planHits  atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// CacheStats is a point-in-time snapshot of a Cache's counters and
// occupancy.
type CacheStats struct {
	Hits      int64
	PlanHits  int64 // the hits that answered a sample plan
	Misses    int64
	Evictions int64
	Entries   int
	Bytes     int64
	MaxBytes  int64
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// NewCache returns a cache bounded to roughly maxBytes of memoized
// results (floored to a usable minimum). The budget is split evenly
// across shards; eviction is LRU per shard.
func NewCache(maxBytes int64) *Cache {
	if maxBytes < minCacheBytes {
		maxBytes = minCacheBytes
	}
	c := &Cache{shardMax: maxBytes / cacheShardCount}
	if c.shardMax < 1 {
		c.shardMax = 1
	}
	for i := range c.shards {
		c.shards[i].lru = list.New()
		c.shards[i].table = make(map[cacheKey]*list.Element)
	}
	return c
}

// Stats returns a snapshot of the cache's counters and occupancy.
func (c *Cache) Stats() CacheStats {
	s := CacheStats{
		Hits:      c.hits.Load(),
		PlanHits:  c.planHits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		MaxBytes:  c.shardMax * cacheShardCount,
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Entries += sh.lru.Len()
		s.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return s
}

// quantBits maps one rect endpoint into the hash domain: finite values
// snap to the cacheQuantum grid; non-finite or astronomically large
// values (which the grid cannot represent) hash their raw bits instead.
func quantBits(x float64) uint64 {
	if math.IsNaN(x) || math.Abs(x) > 1e15 {
		return math.Float64bits(x)
	}
	return uint64(int64(math.Round(x / cacheQuantum)))
}

// rectHash is FNV-1a over the kind, shard salt, dimensionality and
// quantized endpoints of rect. Distinct salts spread one rect's
// per-shard results across distinct buckets.
func rectHash(kind cacheKind, salt uint64, rect geom.Rect) uint64 {
	h := uint64(14695981039346656037)
	mix := func(u uint64) {
		for i := 0; i < 8; i++ {
			h ^= u & 0xff
			h *= 1099511628211
			u >>= 8
		}
	}
	mix(uint64(kind)<<32 | uint64(len(rect)))
	if salt != 0 {
		mix(salt)
	}
	for _, iv := range rect {
		mix(quantBits(iv.Lo))
		mix(quantBits(iv.Hi))
	}
	return h
}

// rectEqual reports exact floating-point equality of two rects — the
// lookup predicate that keeps cached results bit-identical to fresh
// scans. (-0 == 0 compares equal, which is correct: the two produce
// identical scan results.)
func rectEqual(a, b geom.Rect) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Lo != b[i].Lo || a[i].Hi != b[i].Hi {
			return false
		}
	}
	return true
}

// get returns the memoized entry for (kind, salt, rect), if any. The
// returned entry is immutable; callers must copy rows before handing
// them out.
func (c *Cache) get(kind cacheKind, salt uint64, rect geom.Rect) (*cacheEntry, bool) {
	key := cacheKey{kind: kind, hash: rectHash(kind, salt, rect)}
	s := &c.shards[key.hash%cacheShardCount]
	s.mu.Lock()
	if el, ok := s.table[key]; ok {
		e := el.Value.(*cacheEntry)
		if e.salt == salt && rectEqual(e.rect, rect) {
			s.lru.MoveToFront(el)
			s.mu.Unlock()
			c.hits.Add(1)
			if kind == kindSample {
				c.planHits.Add(1)
			}
			obsCacheHits.Inc()
			obsCacheOpHit.Inc()
			obsCacheKindOps[kind][0].Inc()
			return e, true
		}
	}
	s.mu.Unlock()
	c.misses.Add(1)
	obsCacheMisses.Inc()
	obsCacheOpMiss.Inc()
	obsCacheKindOps[kind][1].Inc()
	return nil, false
}

// put memoizes a Count or RowsIn result, cloning rect and copying rows
// so the entry shares no memory with the caller.
func (c *Cache) put(kind cacheKind, salt uint64, rect geom.Rect, count int, rows []int) {
	e := &cacheEntry{
		key:   cacheKey{kind: kind, hash: rectHash(kind, salt, rect)},
		salt:  salt,
		rect:  rect.Clone(),
		count: count,
	}
	if rows != nil {
		e.rows = make([]int, len(rows))
		copy(e.rows, rows)
	}
	c.insert(e)
}

// putPlan memoizes one piece of a sample plan. The entry keeps the
// piece's arrays — immutable, so sharing them with the BatchResults
// that built them is safe — clipped to their length when append growth
// left slack, points the piece at the entry's own rect clone, and drops
// the grid binding: an entry retains nothing of the view.
func (c *Cache) putPlan(salt uint64, rect geom.Rect, p *samplePiece) {
	e := &cacheEntry{
		key:  cacheKey{kind: kindSample, hash: rectHash(kindSample, salt, rect)},
		salt: salt,
		rect: rect.Clone(),
	}
	cp := *p
	cp.g = nil
	if cp.rect != nil {
		cp.rect = e.rect
	}
	if cap(cp.counts) > len(cp.counts) {
		cp.counts = slices.Clone(cp.counts)
	}
	if cap(cp.big) > len(cp.big) {
		cp.big = slices.Clone(cp.big)
	}
	e.plan = &cp
	c.insert(e)
}

// bind returns the piece ready to draw from on g, the grid of the view
// (or shard) the lookup was for.
func (p *samplePiece) bind(g *gridIndex) samplePiece {
	cp := *p
	cp.g = g
	return cp
}

// insert stores a built entry. Inserting past the shard budget evicts
// LRU entries (possibly including the new one, when a single result
// exceeds the whole budget).
func (c *Cache) insert(e *cacheEntry) {
	e.size = entrySize(e)
	s := &c.shards[e.key.hash%cacheShardCount]
	var byteDelta, entryDelta int64
	s.mu.Lock()
	if el, ok := s.table[e.key]; ok {
		// Same bucket: refresh (same rect) or overwrite (quantized
		// near-miss/collision) — either way the old entry goes.
		old := el.Value.(*cacheEntry)
		s.bytes -= old.size
		el.Value = e
		s.bytes += e.size
		s.lru.MoveToFront(el)
		byteDelta = e.size - old.size
	} else {
		s.table[e.key] = s.lru.PushFront(e)
		s.bytes += e.size
		byteDelta = e.size
		entryDelta = 1
	}
	evicted := int64(0)
	for s.bytes > c.shardMax {
		back := s.lru.Back()
		if back == nil {
			break
		}
		be := back.Value.(*cacheEntry)
		s.lru.Remove(back)
		delete(s.table, be.key)
		s.bytes -= be.size
		byteDelta -= be.size
		entryDelta--
		evicted++
	}
	s.mu.Unlock()
	cacheBytesTotal.Add(byteDelta)
	cacheEntriesTotal.Add(entryDelta)
	if evicted > 0 {
		c.evictions.Add(evicted)
		obsCacheEvictions.Add(evicted)
		obsCacheOpEvict.Add(evicted)
	}
}

// WithCache returns a view sharing this view's table, indexes and stats
// whose Count and RowsIn results and sample plans are memoized in c.
// Attach one Cache to the shared view of a dataset and every session
// over it reuses each other's scans; results are bit-identical to the
// uncached view. A nil c disables caching.
func (v *View) WithCache(c *Cache) *View {
	cp := *v
	cp.cache = c
	return &cp
}

// Cache returns the cache attached to this view, or nil.
func (v *View) Cache() *Cache { return v.cache }
