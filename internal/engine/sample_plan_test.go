package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/geom"
)

// cellBlock, collectCells and referenceSample are the materializing
// sample path as it stood before plans — one row-id list per rect, built
// in full, drawn from by position — kept verbatim (minus the scan-chunk
// fan-out and the stats) as the reference every plan-based draw must
// match: same rows, same order, same rng position afterwards.

// cellBlock is one non-empty grid cell overlapping a query rect: its
// flat id, slot range, row ids, and whether the cell lies geometrically
// entirely inside the rect (no per-row verification needed).
type cellBlock struct {
	id   int32
	off  int32 // first slot
	rows []int32
	full bool
}

// collectCells returns the non-empty cells overlapping rect in row-major
// (odometer) order.
func (g *gridIndex) collectCells(rect geom.Rect) []cellBlock {
	var out []cellBlock
	g.visitCells(rect, func(id int32, rows []int32, full bool) bool {
		out = append(out, cellBlock{id: id, off: g.offsets[id], rows: rows, full: full})
		return true
	})
	return out
}

// referenceSample is the pre-plan SampleRect on an unsharded view.
func referenceSample(v *View, rect geom.Rect, n int, rng *rand.Rand) []int {
	if n <= 0 {
		return nil
	}
	if !v.validRect(rect) {
		return nil
	}
	if dim := v.singleConstrainedDim(rect); dim >= 0 {
		lo, hi := v.sortedRange(dim, rect[dim])
		matched := hi - lo
		if matched == 0 {
			return nil
		}
		if n >= matched {
			out := make([]int, 0, matched)
			for _, r := range v.sorted[dim][lo:hi] {
				out = append(out, int(r))
			}
			rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
			return out
		}
		out := make([]int, 0, n)
		for _, t := range referenceFloyd(matched, n, rng) {
			out = append(out, int(v.sorted[dim][lo+t]))
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}

	g := v.grid
	var full [][]int32
	fullTotal := 0
	var partial []int
	var scratch []uint64
	for _, b := range g.collectCells(rect) {
		if b.full {
			full = append(full, b.rows)
			fullTotal += len(b.rows)
			continue
		}
		switch g.zoneClassify(rect, b.id) {
		case zoneCovered:
			for _, r := range b.rows {
				partial = append(partial, int(r))
			}
		case zoneDisjoint:
		default:
			end := b.off + int32(len(b.rows))
			scratch = g.evalCellBits(rect, b.id, b.off, end, scratch[:0])
			for w, bw := range scratch {
				for bw != 0 {
					t := bits.TrailingZeros64(bw)
					partial = append(partial, int(b.rows[w<<6+t]))
					bw &= bw - 1
				}
			}
		}
	}

	total := fullTotal + len(partial)
	if total == 0 {
		return nil
	}
	if n >= total {
		out := make([]int, 0, total)
		for _, b := range full {
			for _, r := range b {
				out = append(out, int(r))
			}
		}
		out = append(out, partial...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}

	out := make([]int, 0, n)
	for _, idx := range referenceFloyd(total, n, rng) {
		out = append(out, referenceRowAt(full, partial, idx))
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// referenceFloyd is Floyd's algorithm as the reference path ran it:
// n distinct indices in [0, total), ascending.
func referenceFloyd(total, n int, rng *rand.Rand) []int {
	chosen := make(map[int]struct{}, n)
	for j := total - n; j < total; j++ {
		t := rng.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
	}
	out := make([]int, 0, n)
	for idx := range chosen {
		out = append(out, idx)
	}
	slices.Sort(out)
	return out
}

// referenceRowAt maps a flat candidate index to a row id: indexes cover
// the full blocks first, then the verified partial rows.
func referenceRowAt(full [][]int32, partial []int, idx int) int {
	for _, b := range full {
		if idx < len(b) {
			return int(b[idx])
		}
		idx -= len(b)
	}
	return partial[idx]
}

// wireShard stands in for a remote shard inside this package: it answers
// from the in-process shard but passes every sample piece through the
// materialize → flat-rows round trip shardrpc's codec performs, so the
// coordinator draws from a rows piece. fail makes every call error.
type wireShard struct {
	ShardBackend
	fail bool
}

var errWireShard = errors.New("wire shard down")

func (w *wireShard) ExecuteBatch(items []ShardBatchItem) ([]ShardBatchResult, error) {
	if w.fail {
		return nil, errWireShard
	}
	out, err := w.ShardBackend.ExecuteBatch(items)
	if err != nil {
		return nil, err
	}
	for k := range out {
		if items[k].Kind != BatchSample {
			continue
		}
		full, partial := out[k].Sample.Blocks(nil, nil)
		var rows []int32
		for _, b := range full {
			rows = append(rows, b...)
		}
		fullTotal := len(rows)
		out[k].Sample = NewShardSample(out[k].Sample.Examined, append(rows, partial...), fullTotal)
	}
	return out, nil
}

// planTopologies returns the view under every execution topology a plan
// is built on: unsharded, 1 and 4 in-process shards, 4 shards with two
// of them behind the wire round trip, and a NewRemoteView with no index
// of its own over the same four backends — each bare and with a cache.
func planTopologies(t testing.TB, base *View) map[string]*View {
	t.Helper()
	sharded4 := base.WithShards(ShardOptions{Shards: 4})
	local := sharded4.LocalShardBackends()
	backends := map[int]ShardBackend{
		0: local[0],
		1: &wireShard{ShardBackend: local[1]},
		2: local[2],
		3: &wireShard{ShardBackend: local[3]},
	}
	mixed, err := sharded4.WithShardBackends(map[int]ShardBackend{1: backends[1], 3: backends[3]})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := NewRemoteView(base.Table(), base.Attrs(), ShardOptions{Shards: 4}, backends)
	if err != nil {
		t.Fatal(err)
	}
	views := map[string]*View{
		"unsharded": base,
		"shards1":   base.WithShards(ShardOptions{Shards: 1}),
		"shards4":   sharded4,
		"mixed":     mixed,
		"remote":    remote,
	}
	for name, v := range views {
		views[name+"+cache"] = v.WithCache(NewCache(4 << 20))
	}
	return views
}

// checkPlanDraw draws (rect, n) on v through the plan path and asserts
// rows and the rng's position afterwards equal the reference's on base.
func checkPlanDraw(t testing.TB, label string, base, v *View, rect geom.Rect, n int, seed int64) {
	t.Helper()
	refRng := rand.New(rand.NewSource(seed))
	want := referenceSample(base, rect, n, refRng)
	rng := rand.New(rand.NewSource(seed))
	got := v.ExecuteBatch([]BatchQuery{{Kind: BatchSample, Rect: rect, N: n}}).Sample(0, rng)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: rect %v n=%d: rows differ\n got %v\nwant %v", label, rect, n, got, want)
	}
	if g, w := rng.Int63(), refRng.Int63(); g != w {
		t.Fatalf("%s: rect %v n=%d: rng position differs after the draw", label, rect, n)
	}
}

// planSizes returns the sample sizes worth drawing for a rect with
// total matches: 1, 2, 5, one short of everything, and everything.
func planSizes(total int) []int {
	sizes := []int{1, 2, 5, total + 3}
	if total > 1 {
		sizes = append(sizes, total-1)
	}
	return sizes
}

// TestSamplePlanMatchesReference is the plan's bit-identity property:
// over random and edge-case rects in 1–5 dimensions (NaN-poisoned
// cells, clustered duplicates that make zonemap-covered boundary cells,
// lattice edges, invalid and empty rects), every topology, cold and on a
// warm shared cache, draws the reference's rows and leaves the rng where
// the reference leaves it.
func TestSamplePlanMatchesReference(t *testing.T) {
	gen := rand.New(rand.NewSource(17))
	for dims := 1; dims <= 5; dims++ {
		for _, withNaN := range []bool{false, true} {
			tab := randomColumnarTable(dims, 6000, gen, withNaN)
			base, err := NewViewWorkers(tab, tab.Schema().Names(), 1)
			if err != nil {
				t.Fatal(err)
			}
			rects := append(boundaryRects(dims, gen), randomRects(10, dims, gen)...)
			rects = append(rects, singleDimRects(3, dims, gen)...)
			inverted := randomRects(1, dims, gen)[0]
			inverted[0] = geom.Interval{Lo: 60, Hi: 40}
			nan := randomRects(1, dims, gen)[0]
			nan[dims-1].Lo = math.NaN()
			outside := geom.NewRect(dims)
			outside[0] = geom.Interval{Lo: 120, Hi: 130}
			rects = append(rects, inverted, nan, outside, geom.NewRect(dims+1))
			views := planTopologies(t, base)
			for ri, rect := range rects {
				total := len(referenceSample(base, rect, math.MaxInt32, rand.New(rand.NewSource(1))))
				for _, n := range planSizes(total) {
					for name, v := range views {
						// Twice: on the cached views the second draw is planned
						// from the memo the first one stored.
						for pass := 0; pass < 2; pass++ {
							label := fmt.Sprintf("dims=%d nan=%v %s pass %d rect#%d", dims, withNaN, name, pass, ri)
							checkPlanDraw(t, label, base, v, rect, n, int64(ri*31+n))
						}
					}
				}
			}
			for name, v := range views {
				if c := v.Cache(); c != nil && dims > 1 && c.Stats().PlanHits == 0 {
					t.Fatalf("dims=%d %s: warm passes never hit a memoized plan", dims, name)
				}
			}
		}
	}
}

// TestSamplePlanBigCell covers the count encoding's escape: a boundary
// cell with more than 65 535 matches, both straddling the rect (its
// survivors are picked out of the re-evaluated bitmap) and
// zonemap-covered (answered from its slots).
func TestSamplePlanBigCell(t *testing.T) {
	schema := dataset.Schema{
		{Name: "x", Min: geom.NormMin, Max: geom.NormMax},
		{Name: "y", Min: geom.NormMin, Max: geom.NormMax},
	}
	b := dataset.NewBuilder("bigcell", schema)
	gen := rand.New(rand.NewSource(4))
	for i := 0; i < 100_000; i++ {
		b.Add(51+gen.Float64()/2, 51+gen.Float64()/2)
	}
	for i := 0; i < 20_000; i++ {
		b.Add(gen.Float64()*100, gen.Float64()*100)
	}
	tab := b.Build()
	base, err := NewViewWorkers(tab, tab.Schema().Names(), 1)
	if err != nil {
		t.Fatal(err)
	}
	straddling := geom.R(51.1, 70, 40, 60)
	covered := geom.R(50.9, 70, 40, 60)
	for _, rect := range []geom.Rect{straddling, covered} {
		br := base.ExecuteBatch([]BatchQuery{{Kind: BatchSample, Rect: rect, N: 1}})
		if p := br.plans[0][0]; len(p.big) == 0 {
			t.Fatalf("rect %v: no boundary cell took the big-count escape (counts %d)", rect, len(p.counts))
		}
		for name, v := range planTopologies(t, base) {
			for _, n := range []int{1, 7, 200_000} {
				for pass := 0; pass < 2; pass++ {
					checkPlanDraw(t, fmt.Sprintf("%s pass %d", name, pass), base, v, rect, n, int64(n))
				}
			}
		}
	}
}

// planEntries returns the sample-plan entries a cache holds.
func planEntries(c *Cache) []*cacheEntry {
	var out []*cacheEntry
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; el = el.Next() {
			if e := el.Value.(*cacheEntry); e.key.kind == kindSample {
				out = append(out, e)
			}
		}
		s.mu.Unlock()
	}
	return out
}

// TestSamplePlanNotStoredOnCancelOrFailure pins the memo's write rule: a
// cancelled pass and a failed shard leave no plan behind, and what the
// healthy shards stored is still right.
func TestSamplePlanNotStoredOnCancelOrFailure(t *testing.T) {
	tab := dataset.GenerateSDSS(30_000, 2)
	base, err := NewViewWorkers(tab, []string{"rowc", "colc"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rect := geom.R(5, 90, 5, 90) // hundreds of cells: the walk polls the context
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, v := range map[string]*View{
		"unsharded": base,
		"shards4":   base.WithShards(ShardOptions{Shards: 4}),
	} {
		cache := NewCache(1 << 20)
		dead := v.WithCache(cache).WithContext(ctx)
		dead.ExecuteBatch([]BatchQuery{{Kind: BatchSample, Rect: rect, N: 3}})
		if n := len(planEntries(cache)); n != 0 {
			t.Fatalf("%s: cancelled pass stored %d plans", name, n)
		}
	}

	sharded := base.WithShards(ShardOptions{Shards: 4, MaxAttempts: 1})
	local := sharded.LocalShardBackends()
	down := &wireShard{ShardBackend: local[2], fail: true}
	mixed, err := sharded.WithShardBackends(map[int]ShardBackend{2: down})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(1 << 20)
	cached := mixed.WithCache(cache)
	br := cached.ExecuteBatch([]BatchQuery{{Kind: BatchSample, Rect: rect, N: 3}})
	if br.Healthy() != 3 {
		t.Fatalf("healthy = %d, want 3", br.Healthy())
	}
	entries := planEntries(cache)
	if len(entries) != 3 {
		t.Fatalf("failed shard: %d plans stored, want the 3 healthy shards'", len(entries))
	}
	for _, e := range entries {
		if e.salt == shardSalt(2) {
			t.Fatal("the failed shard's plan was stored")
		}
	}
	// The healthy shards' memoized pieces serve a clean topology exactly.
	clean := sharded.WithCache(cache)
	checkPlanDraw(t, "after failure", base, clean, rect, 5, 9)
}

// TestSamplePlanConcurrentSessions runs 8 sessions' worth of draws over
// one shared cache at once — plans are built, stored, hit and drawn from
// concurrently — and every draw must still equal the reference. Under
// -race this is the shared plan's safety net.
func TestSamplePlanConcurrentSessions(t *testing.T) {
	tab := dataset.GenerateSDSS(20_000, 7)
	base, err := NewViewWorkers(tab, []string{"rowc", "colc", "ra"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	gen := rand.New(rand.NewSource(23))
	rects := randomRects(24, 3, gen)
	want := make([][]int, len(rects))
	for i, rect := range rects {
		want[i] = referenceSample(base, rect, 6, rand.New(rand.NewSource(int64(i))))
	}
	for name, v := range map[string]*View{
		"unsharded": base.WithCache(NewCache(1 << 20)),
		"shards4":   base.WithShards(ShardOptions{Shards: 4}).WithCache(NewCache(1 << 20)),
	} {
		var wg sync.WaitGroup
		for s := 0; s < 8; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				session := v
				order := rand.New(rand.NewSource(int64(s))).Perm(len(rects))
				for round := 0; round < 3; round++ {
					queries := make([]BatchQuery, len(order))
					for k, i := range order {
						queries[k] = BatchQuery{Kind: BatchSample, Rect: rects[i], N: 6}
					}
					br := session.ExecuteBatch(queries)
					for k, i := range order {
						if got := br.Sample(k, rand.New(rand.NewSource(int64(i)))); !reflect.DeepEqual(got, want[i]) {
							t.Errorf("%s session %d round %d rect %d: rows differ", name, s, round, i)
							return
						}
					}
				}
			}(s)
		}
		wg.Wait()
	}
}

// reachableBytes is what a sample-plan entry keeps alive, counted
// independently of entrySize: the entry, its list element and table
// slot, the rect clone, the piece and its arrays.
func reachableBytes(e *cacheEntry) int64 {
	const (
		entryStruct = 16 + 8 + 24 + 8 + 24 + 8 + 8 // key, salt, rect, count, rows, plan, size
		listElement = 8 + 8 + 8 + 16               // next, prev, list, Value
		tableSlot   = 16 + 8                       // key, element pointer
		pieceStruct = 8 + 24 + 8 + 8 + 24 + 24 + 24
	)
	p := e.plan
	return entryStruct + listElement + tableSlot + pieceStruct + int64(cap(e.rect))*16 +
		int64(cap(p.counts))*2 + int64(cap(p.big))*4 + int64(cap(p.rows))*4
}

// TestSamplePlanCacheAccounting pins -cache-bytes honesty for plans: the
// cache accounts at least every byte its plan entries keep reachable,
// and a discovery-shaped plan over a 1 M-row 2-D view costs under 1 KB —
// the materialized layout it replaces is several hundred KB.
func TestSamplePlanCacheAccounting(t *testing.T) {
	tab := dataset.GenerateSDSS(1_000_000, 3)
	base, err := NewViewWorkers(tab, []string{"rowc", "colc"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(64 << 20)
	local := base.WithShards(ShardOptions{Shards: 2}).LocalShardBackends()
	mixed, err := base.WithShards(ShardOptions{Shards: 2}).WithShardBackends(map[int]ShardBackend{1: &wireShard{ShardBackend: local[1]}})
	if err != nil {
		t.Fatal(err)
	}
	var queries []BatchQuery
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			c := geom.Point{6.25 + 12.5*float64(i), 6.25 + 12.5*float64(j)}
			queries = append(queries, BatchQuery{Kind: BatchSample, Rect: geom.RectAround(c, 5, geom.NewRect(2)), N: 1})
		}
	}
	base.WithCache(cache).ExecuteBatch(queries)
	for _, e := range planEntries(cache) {
		if e.size >= 1024 {
			t.Fatalf("a plan over a 1M-row 2-D view accounts %d bytes, want < 1 KB", e.size)
		}
	}
	mixed.WithCache(cache).ExecuteBatch(queries) // lazy and decoded rows pieces join
	entries := planEntries(cache)
	if want := 3 * len(queries); len(entries) != want {
		t.Fatalf("%d plan entries, want %d", len(entries), want)
	}
	var reachable int64
	for _, e := range entries {
		reachable += reachableBytes(e)
		if e.plan.g != nil {
			t.Fatal("a cached plan retains a grid")
		}
	}
	if got := cache.Stats().Bytes; got < reachable {
		t.Fatalf("cache accounts %d bytes for entries that keep %d reachable", got, reachable)
	}
}

// planFixture is one base view and the cached topologies over it.
type planFixture struct {
	base  *View
	views map[string]*View
}

// samplePlanFuzzViews is FuzzSamplePlan's fixture: two small 3-D views
// with clustered duplicates, one NaN-free and one with NaN-poisoned
// cells, each unsharded and as 4 shards with one behind the wire round
// trip, all cached.
var samplePlanFuzzViews = sync.OnceValue(func() [2]planFixture {
	var out [2]planFixture
	for i := range out {
		tab := randomColumnarTable(3, 4000, rand.New(rand.NewSource(99)), i == 1)
		base, err := NewViewWorkers(tab, tab.Schema().Names(), 1)
		if err != nil {
			panic(err)
		}
		sharded := base.WithShards(ShardOptions{Shards: 4})
		local := sharded.LocalShardBackends()
		mixed, err := sharded.WithShardBackends(map[int]ShardBackend{2: &wireShard{ShardBackend: local[2]}})
		if err != nil {
			panic(err)
		}
		out[i] = planFixture{base: base, views: map[string]*View{
			"unsharded": base.WithCache(NewCache(1 << 20)),
			"mixed":     mixed.WithCache(NewCache(1 << 20)),
		}}
	}
	return out
})

// FuzzSamplePlan feeds arbitrary rect bytes (six little-endian float64
// endpoints; short input leaves the rest of the rect unconstrained), a
// sample size and an rng seed to the plan path and demands the
// reference's rows and rng position, cold or warm, whatever the rect.
func FuzzSamplePlan(f *testing.F) {
	rectBytes := func(vals ...float64) []byte {
		var out []byte
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	f.Add(rectBytes(10, 40, 20, 60, 0, 100), 3, int64(1))
	f.Add(rectBytes(25, 75, 25, 75, 25, 75), 1, int64(2)) // edges on the duplicate alphabet
	f.Add(rectBytes(30, 30.5), 5, int64(3))               // one constrained dimension
	f.Add(rectBytes(60, 40, 0, 100, 0, 100), 2, int64(4)) // inverted
	f.Add(rectBytes(math.NaN(), 50), 2, int64(5))
	f.Add(rectBytes(math.Inf(-1), math.Inf(1), 0, 0, 100, 100), 4000, int64(6))
	f.Add([]byte{}, 0, int64(7))
	f.Fuzz(func(t *testing.T, data []byte, n int, seed int64) {
		rect := geom.NewRect(3)
		for d := range rect {
			if len(data) >= 16 {
				rect[d].Lo = math.Float64frombits(binary.LittleEndian.Uint64(data))
				rect[d].Hi = math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
				data = data[16:]
			}
		}
		for i, fx := range samplePlanFuzzViews() {
			for name, v := range fx.views {
				checkPlanDraw(t, fmt.Sprintf("nan=%v %s", i == 1, name), fx.base, v, rect, n, seed)
			}
		}
	})
}

// linearSortedRange is the covering-index range by definition, found by
// linear scan — how sortedRangeIn used to advance its upper bound.
func linearSortedRange(idx []int32, vals []float64, iv geom.Interval) (int, int) {
	lo := 0
	for lo < len(idx) && vals[idx[lo]] < iv.Lo {
		lo++
	}
	hi := lo
	for hi < len(idx) && vals[idx[hi]] <= iv.Hi {
		hi++
	}
	return lo, hi
}

// TestSortedRangeMatchesLinear pins the two-binary-search covering-index
// range against the linear scan on NaN-free columns with heavy
// duplicates: intervals ending on present values, between them, empty,
// inverted-empty, whole-domain and infinite.
func TestSortedRangeMatchesLinear(t *testing.T) {
	gen := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		n := gen.Intn(400)
		vals := make([]float64, n)
		for i := range vals {
			if gen.Intn(3) == 0 {
				vals[i] = gen.Float64() * 100
			} else {
				vals[i] = float64(gen.Intn(9)) * 12.5 // duplicate alphabet
			}
		}
		idx, keys := make([]int32, n), make([]uint64, n)
		for i := range idx {
			idx[i], keys[i] = int32(i), sortKey(vals[i])
		}
		sortCovering(keys, idx, &coverScratch{}, 1)
		ivs := []geom.Interval{
			{Lo: geom.NormMin, Hi: geom.NormMax},
			{Lo: math.Inf(-1), Hi: math.Inf(1)},
			{Lo: 12.5, Hi: 12.5},
			{Lo: 12.5, Hi: 87.5},
			{Lo: 13, Hi: 13.01},
			{Lo: 101, Hi: 200},
			{Lo: -5, Hi: -1},
			{Lo: 100, Hi: 100},
		}
		for k := 0; k < 20; k++ {
			lo := gen.Float64()*110 - 5
			ivs = append(ivs, geom.Interval{Lo: lo, Hi: lo + gen.Float64()*40})
		}
		for _, iv := range ivs {
			lo, hi := sortedRangeIn(len(idx), func(i int) float64 { return vals[idx[i]] }, iv)
			wlo, whi := linearSortedRange(idx, vals, iv)
			if lo != wlo || hi != whi {
				t.Fatalf("trial %d iv %v: range [%d,%d), linear scan [%d,%d)", trial, iv, lo, hi, wlo, whi)
			}
		}
	}
}

// TestSampleNaNColumnTakesGridPath pins what a NaN does to the
// covering-index sample path: the sorted index orders NaNs last, a rect
// constraining only a NaN-holding column is answered by the grid path,
// and on every topology the candidates are exactly RowsIn's — NaN rows
// included, since a NaN passes every range clause.
func TestSampleNaNColumnTakesGridPath(t *testing.T) {
	gen := rand.New(rand.NewSource(23))
	tab := randomColumnarTable(3, 5000, gen, true)
	base, err := NewViewWorkers(tab, tab.Schema().Names(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for d, idx := range base.sorted {
		nans := 0
		for i, r := range idx {
			if math.IsNaN(base.normAt(d, int(r))) {
				nans++
			} else if nans > 0 {
				t.Fatalf("dim %d: a number at sorted position %d follows a NaN", d, i)
			}
		}
		if nans == 0 {
			t.Fatalf("dim %d: fixture column holds no NaN", d)
		}
	}
	for _, rect := range singleDimRects(12, 3, gen) {
		if base.singleConstrainedDim(rect) >= 0 {
			t.Fatalf("rect %v: a NaN-holding column took the covering-index path", rect)
		}
		want := base.RowsIn(rect)
		sawNaN := false
		for _, r := range want {
			for d := range base.cols {
				sawNaN = sawNaN || math.IsNaN(base.normAt(d, r))
			}
		}
		if len(want) > 0 && !sawNaN {
			t.Fatalf("rect %v: no NaN row among the candidates", rect)
		}
		slices.Sort(want)
		for name, v := range planTopologies(t, base) {
			got := v.SampleRect(rect, len(want)+1, rand.New(rand.NewSource(5)))
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s rect %v: %d candidates, RowsIn has %d", name, rect, len(got), len(want))
			}
		}
	}
}
