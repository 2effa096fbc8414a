package engine

// This file is the sharded scatter-gather execution layer. WithShards
// splits a view's columnar grid into N contiguous cell-range shards —
// each owning its own slot slab range, rebased CSR offsets and
// predicate-cache partition — and routes every batch's grid-path items
// (batch.go; Count, RowsIn, RowsInAny and SampleRect are batches of
// one) through a supervised fan-out: every shard answers them in one
// backend call, a per-shard supervisor tracks health (supervisor.go)
// with retries, optional deadlines and hedged second attempts, and the
// gather step reassembles results in shard order. Because shards cut at cell boundaries and gather in
// cell order, a fault-free sharded query is bit-identical to the
// unsharded path at any shard count; when a shard cannot serve, the
// query returns the healthy shards' rows plus a named degradation
// ("shard_partial:n/N") through the view's ShardTracker — never a
// silent wrong answer — and the *Exact variants return
// ErrPartialResult instead.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/faultinject"
	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/obs"
	"github.com/explore-by-example/aide/internal/par"
)

// Per-shard fault points. Chaos tests select them with the base name
// (every shard) or faultinject.PointAt(name, i) (one shard).
const (
	// FaultShardScan fires inside the shard attempts of a batch that
	// carries no sample (Count, RowsIn and RowsInAny are such batches).
	FaultShardScan = "engine.shard.scan"
	// FaultShardSample fires inside the shard attempts of a batch that
	// carries a grid-path sample. Covering-index samples never reach a
	// shard, so they roll no fault point.
	FaultShardSample = "engine.shard.sample"
	// FaultShardBuild fires while a shard's grid and indexes are being
	// built.
	FaultShardBuild = "engine.shard.build"
)

// engine_shard_ops{state}: per-shard operation outcomes. Children are
// resolved once so the scatter hot path pays one atomic per outcome.
var (
	obsShardOK      = obs.GetCounterVec("engine_shard_ops", "state").With("ok")
	obsShardFailed  = obs.GetCounterVec("engine_shard_ops", "state").With("failed")
	obsShardSkipped = obs.GetCounterVec("engine_shard_ops", "state").With("skipped")
	// obsScatterRounds counts scatter fan-outs (one per sharded engine
	// operation; each round costs one backend call per healthy shard).
	// Sessions should spend O(1) rounds per iteration via ExecuteBatch —
	// aidebench records the measured ratio as
	// shard_roundtrips_per_iteration.
	obsScatterRounds = obs.GetCounter("engine.shard_scatter_rounds")
	obsShardRetried  = obs.GetCounterVec("engine_shard_ops", "state").With("retried")
	obsShardHedged   = obs.GetCounterVec("engine_shard_ops", "state").With("hedged")
	obsShardPartial  = obs.GetCounterVec("engine_shard_ops", "state").With("partial")
)

// ErrPartialResult is returned by the *Exact query variants when one or
// more shards could not serve and the result therefore covers only the
// healthy subset of the data.
var ErrPartialResult = errors.New("engine: partial result: one or more shards unavailable")

// errShardDeadline is the per-attempt deadline error; it drives the
// retry/supervision path like any other shard failure.
var errShardDeadline = errors.New("engine: shard attempt deadline exceeded")

// ShardOptions configures WithShards.
type ShardOptions struct {
	// Shards is the shard count. <= 0 leaves the view unsharded; 1 builds
	// a single-shard set that still exercises the scatter path.
	Shards int
	// Deadline bounds each shard attempt; 0 disables. An attempt past
	// its deadline counts as a failure (and is retried while attempts
	// remain); the abandoned goroutine finishes in the background and
	// its result is discarded.
	Deadline time.Duration
	// HedgeAfter launches a second, concurrent attempt for a shard whose
	// first attempt is still running after this long; 0 disables. The
	// first attempt to finish wins. Hedged attempts do not roll injected
	// faults, so a shard's fault stream consumption stays deterministic.
	HedgeAfter time.Duration
	// MaxAttempts is the sequential attempt budget per shard per
	// operation (retries use full-jitter backoff); 0 means 2.
	MaxAttempts int
	// CooldownOps is how many operations a quarantined shard sits out
	// before a recovery probe; 0 means 8.
	CooldownOps int
	// CooldownTime, when positive, measures the quarantine cooldown in
	// wall time instead of scatter operations: a quarantined shard is
	// probed once this long has elapsed since it entered quarantine.
	// The supervisor's clock is injectable (tests walk the full state
	// machine without sleeping). Zero keeps the CooldownOps behavior.
	CooldownTime time.Duration
}

// shard is one cell-range partition of a view's grid. Its grid is the
// grid of its own cells — cut from a built view's grid (gridIndex.sub)
// or laid out from the table for a worker (NewServedShards) — so it
// reads values from nothing but its own slabs. It holds no covering
// index: the view's serves every topology.
type shard struct {
	index int
	grid  *gridIndex
	nrows int
}

// shardSet is the sharded execution state hung off a View. It is
// immutable after construction apart from the supervisor, which is
// internally synchronized, so view copies share it freely. backends is
// the execution route per shard: the in-process localShard by default,
// a remote (shardrpc) backend where WithShardBackends overrode it.
type shardSet struct {
	n        int
	opts     ShardOptions
	shards   []*shard
	backends []ShardBackend
	remote   []bool // which backends were overridden by WithShardBackends
	sup      *supervisor
	domain   *par.Domain
}

// shardSalt is the predicate-cache key partition for one shard: index+1
// so shard 0 never collides with the unsharded salt 0.
func shardSalt(i int) uint64 { return uint64(i) + 1 }

// WithShards returns a view sharing this view's table, indexes and
// stats whose queries scatter across opts.Shards cell-range shards (see
// the package comment at the top of this file). opts.Shards <= 0
// returns an unsharded copy. The returned view keeps the receiver's
// fingerprint: shard count is an execution detail, not a content
// change, so WAL logs written against any shard count recover against
// any other. It panics on a view built by NewRemoteView, which has no
// grid to split.
func (v *View) WithShards(opts ShardOptions) *View {
	if v.grid == nil {
		panic("engine: WithShards on a view without a local index (NewRemoteView)")
	}
	c := *v
	if opts.Shards <= 0 {
		c.shards = nil
		return &c
	}
	c.shards = buildShardSet(v, opts)
	return &c
}

// NewRemoteView builds a view whose every shard is served by one of
// backends — remote shard workers, typically (internal/shardrpc). It
// builds the covering index NewView builds, from the table it
// holds, and no grid or shard partitions: covering-index samples
// resolve here, and everything else scatters as through
// WithShardBackends, with the same results. It errors unless backends
// holds a non-nil backend for every index in [0, opts.Shards).
func NewRemoteView(tab *dataset.Table, attrs []string, opts ShardOptions, backends map[int]ShardBackend) (*View, error) {
	if opts.Shards <= 0 || len(backends) != opts.Shards {
		return nil, fmt.Errorf("engine: NewRemoteView got %d backends for %d shards", len(backends), opts.Shards)
	}
	ss := newShardSet(opts)
	for i, b := range backends {
		if i < 0 || i >= ss.n || b == nil {
			return nil, fmt.Errorf("engine: NewRemoteView: backend %d is nil or outside [0,%d)", i, ss.n)
		}
		ss.backends[i], ss.remote[i] = b, true
	}
	v, err := normalizeView(tab, attrs, 0)
	if err != nil {
		return nil, err
	}
	v.buildCoveringIndex(0)
	v.shards = ss
	return v, nil
}

// ShardCount returns the view's shard count, 0 when unsharded.
func (v *View) ShardCount() int {
	if v.shards == nil {
		return 0
	}
	return v.shards.n
}

// ShardHealthInfo is one shard's health snapshot, as served by
// /healthz and /v1/slo.
type ShardHealthInfo struct {
	Index            int    `json:"index"`
	State            string `json:"state"`
	Rows             int    `json:"rows"`
	ConsecutiveFails int    `json:"consecutive_fails,omitempty"`
	// Remote marks shards routed to an out-of-process backend
	// (WithShardBackends) instead of the in-process cores.
	Remote bool `json:"remote,omitempty"`
}

// ShardHealth returns a snapshot of every shard's supervised state,
// nil when the view is unsharded.
func (v *View) ShardHealth() []ShardHealthInfo {
	if v.shards == nil {
		return nil
	}
	states, fails := v.shards.sup.snapshot()
	out := make([]ShardHealthInfo, v.shards.n)
	for i := range out {
		out[i] = ShardHealthInfo{
			Index:            i,
			State:            states[i].String(),
			Rows:             v.shards.backends[i].NumRows(),
			ConsecutiveFails: fails[i],
			Remote:           v.shards.remote[i],
		}
	}
	return out
}

// WithShardBackends returns a view copy whose shard execution routes
// the listed shard indexes through the given backends — remote shard
// workers, typically (internal/shardrpc) — while unlisted indexes keep
// their in-process cores: a mixed local/remote topology. The copy gets
// its own supervisor (backend health is a property of the topology,
// not of the shared base view) but shares the immutable shard
// partitions, so the fingerprint and the bit-identity contract are
// unchanged. It errors when the view is unsharded or an index is out
// of range.
func (v *View) WithShardBackends(backends map[int]ShardBackend) (*View, error) {
	if len(backends) == 0 {
		c := *v
		return &c, nil
	}
	if v.shards == nil {
		return nil, fmt.Errorf("engine: WithShardBackends on an unsharded view")
	}
	old := v.shards
	ns := &shardSet{
		n:        old.n,
		opts:     old.opts,
		shards:   old.shards,
		backends: make([]ShardBackend, old.n),
		remote:   make([]bool, old.n),
		sup:      newSupervisor(old.n, old.opts),
		domain:   old.domain,
	}
	copy(ns.backends, old.backends)
	copy(ns.remote, old.remote)
	for i, b := range backends {
		if i < 0 || i >= old.n {
			return nil, fmt.Errorf("engine: shard backend index %d out of range [0,%d)", i, old.n)
		}
		if b == nil {
			return nil, fmt.Errorf("engine: nil backend for shard %d", i)
		}
		ns.backends[i] = b
		ns.remote[i] = true
	}
	c := *v
	c.shards = ns
	return &c, nil
}

// ShardTransitions returns the supervisor's bounded transition log,
// nil when the view is unsharded.
func (v *View) ShardTransitions() []ShardTransition {
	if v.shards == nil {
		return nil
	}
	return v.shards.sup.transitions()
}

// ShardTracker accumulates partial-result events between drains. Wire
// one per session with WithShardTracker; the exploration loop drains it
// every iteration into IterationResult.Degradations, so a quarantined
// shard surfaces as a named degradation instead of a silently small
// answer.
type ShardTracker struct {
	mu           sync.Mutex
	events       int
	worstHealthy int
	total        int
}

// note records one partial operation that was served by healthy of
// total shards.
func (t *ShardTracker) note(healthy, total int) {
	t.mu.Lock()
	if t.events == 0 || healthy < t.worstHealthy {
		t.worstHealthy = healthy
	}
	t.events++
	t.total = total
	t.mu.Unlock()
}

// Drain returns the named degradation for the partial operations since
// the last drain — "shard_partial:n/N" where n is the worst healthy
// shard count observed — and resets. ok is false when every operation
// was complete.
func (t *ShardTracker) Drain() (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.events == 0 {
		return "", false
	}
	name := ShardPartialDegradation(t.worstHealthy, t.total)
	t.events = 0
	return name, true
}

// Err returns ErrPartialResult when partial operations are pending
// (without draining them), nil otherwise.
func (t *ShardTracker) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.events != 0 {
		return ErrPartialResult
	}
	return nil
}

// ShardPartialDegradation formats the named degradation for a query
// served by healthy of total shards.
func ShardPartialDegradation(healthy, total int) string {
	return fmt.Sprintf("shard_partial:%d/%d", healthy, total)
}

// WithShardTracker returns a view copy that records partial-result
// events into the returned tracker, plus the tracker. On an unsharded
// view the tracker is inert (returned for uniformity).
func (v *View) WithShardTracker() (*View, *ShardTracker) {
	c := *v
	c.tracker = &ShardTracker{}
	return &c, c.tracker
}

// noteShardOutcome publishes a partial-result event: the partial
// counter always, the session tracker when one is wired.
func (v *View) noteShardOutcome(healthy int) {
	if healthy >= v.shards.n {
		return
	}
	obsShardPartial.Inc()
	if v.tracker != nil {
		v.tracker.note(healthy, v.shards.n)
	}
}

// newShardSet is the execution state of opts.Shards shards with no
// partitions and no backends yet; opts.MaxAttempts defaults to 2.
func newShardSet(opts ShardOptions) *shardSet {
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 2
	}
	n := opts.Shards
	return &shardSet{
		n:        n,
		opts:     opts,
		backends: make([]ShardBackend, n),
		remote:   make([]bool, n),
		sup:      newSupervisor(n, opts),
		domain:   par.NewDomain("engine.shards", 4*n),
	}
}

// planGrid returns the grid a memoized lazy sample plan of shard i binds
// to. A NewRemoteView view has no partitions: a remote backend's plans
// are wire rows that bind to nothing; an in-process one has its grid.
func (ss *shardSet) planGrid(i int) *gridIndex {
	if ss.shards != nil {
		return ss.shards[i].grid
	}
	if l, ok := ss.backends[i].(*localShard); ok {
		return l.sh.grid
	}
	return nil
}

// buildShardSet splits v's grid into opts.Shards shards (newShards),
// each subslicing the grid's slot arrays.
func buildShardSet(v *View, opts ShardOptions) *shardSet {
	ss := newShardSet(opts)
	ss.shards = newShards(v.grid.offsets, ss.n, func(_, c0, c1 int) *gridIndex { return v.grid.sub(c0, c1) })
	for i, sh := range ss.shards {
		ss.backends[i] = newLocalShard(sh)
	}
	return ss
}

// NewServedShards builds only the shards listed in serve of the view
// over attrs of tab split into shards shards, and returns their backends
// by index and the view fingerprint: what a shard worker (cmd/aideshard)
// serves. Each backend answers exactly as the one at its index in
// NewView(tab, attrs).WithShards(ShardOptions{Shards:
// shards}).LocalShardBackends(), but nothing else is built: a census
// counts the rows per cell without storing anything per row, shardCuts
// cuts the cells from the counts, and only the served cells' rows are
// laid out and normalized.
func NewServedShards(tab *dataset.Table, attrs []string, shards int, serve []int) (map[int]ShardBackend, string, error) {
	if i := slices.IndexFunc(serve, func(i int) bool { return i < 0 || i >= shards }); i >= 0 {
		return nil, "", fmt.Errorf("engine: shard %d outside [0,%d)", serve[i], shards)
	}
	v, err := normalizeView(tab, attrs, 0)
	if err != nil {
		return nil, "", err
	}
	g := newGridIndex(len(v.cols), tab.NumRows())
	chunks := g.countCells(v, 0)
	out := make(map[int]ShardBackend, len(serve))
	for _, sh := range newShards(g.offsets, shards, func(i, c0, c1 int) *gridIndex {
		if !slices.Contains(serve, i) {
			return nil
		}
		return g.layout(v, chunks, c0, c1, 0)
	}) {
		if sh != nil {
			out[sh.index] = newLocalShard(sh)
		}
	}
	return out, v.fp, nil
}

// shardCuts cuts the cells whose slot offsets are offsets (len cells+1)
// into n contiguous ranges balanced by row count: shard i owns cells
// [cuts[i], cuts[i+1]). Both shard builds cut by it, so a worker's
// shards are the ones a built view splits into.
func shardCuts(offsets []int32, n int) []int {
	cells := len(offsets) - 1
	cuts := make([]int, n+1)
	cuts[n] = cells
	for i := 1; i < n; i++ {
		target := int32(i * int(offsets[cells]) / n)
		cuts[i] = max(sort.Search(cells, func(c int) bool { return offsets[c] >= target }), cuts[i-1])
	}
	return cuts
}

// newShards cuts cells with the slot offsets offsets n ways (shardCuts)
// and builds shard i over grid(i, c0, c1), the grid of its cells (nil:
// not built). A shard is its grid: no covering index is sorted per
// shard. Cells never straddle a cut, so every global scan order is
// exactly the shard-order concatenation of the per-shard orders — the
// invariant the bit-identity guarantee rests on.
func newShards(offsets []int32, n int, grid func(i, c0, c1 int) *gridIndex) []*shard {
	cuts := shardCuts(offsets, n)
	shards := make([]*shard, n)
	for i := range shards {
		if g := grid(i, cuts[i], cuts[i+1]); g != nil {
			pt := faultinject.PointAt(FaultShardBuild, i)
			faultinject.Latency(pt)
			faultinject.Panic(pt)
			shards[i] = &shard{index: i, grid: g, nrows: len(g.rows)}
		}
	}
	return shards
}

// scatterShards fans fn across every admitted shard, one goroutine per
// shard, supervising each: per-attempt fault hooks and panic recovery,
// full-jitter retries, optional per-attempt deadlines and a hedged
// second attempt for stragglers. It returns per-shard results with a
// validity mask and the number of shards that served. A cancelled ctx
// short-circuits without recording supervisor outcomes or failures:
// cancelled results are discarded by contract, so they must not move
// health state or look like degradations.
func scatterShards[T any](ss *shardSet, ctx context.Context, point string, fn func(b ShardBackend) (T, error)) (res []T, ok []bool, healthy int) {
	tick := ss.sup.beginOp()
	obsScatterRounds.Inc()
	res = make([]T, ss.n)
	ok = make([]bool, ss.n)
	ss.domain.Scatter(ss.n, func(i int) {
		if ctx.Err() != nil {
			return
		}
		admitted, _ := ss.sup.admit(i, tick)
		if !admitted {
			obsShardSkipped.Inc()
			return
		}
		val, err := runShardAttempts(ss, ctx, point, i, fn)
		if ctx.Err() != nil {
			// Cancelled mid-attempt: the result is discarded by contract,
			// so neither health state nor failure counts may move.
			return
		}
		if err != nil {
			ss.sup.record(i, tick, false)
			obsShardFailed.Inc()
			return
		}
		ss.sup.record(i, tick, true)
		obsShardOK.Inc()
		res[i] = val
		ok[i] = true
	})
	if ctx.Err() != nil {
		// ctx errors are sticky: any goroutine that skipped recording saw
		// the same cancellation. Report full health so the discarded
		// result records no degradation.
		return res, make([]bool, ss.n), ss.n
	}
	for i := range ok {
		if ok[i] {
			healthy++
		}
	}
	return res, ok, healthy
}

// runShardAttempts runs up to MaxAttempts sequential supervised
// attempts for one shard, with full-jitter backoff between them.
func runShardAttempts[T any](ss *shardSet, ctx context.Context, point string, i int, fn func(b ShardBackend) (T, error)) (T, error) {
	pt := faultinject.PointAt(point, i)
	var zero T
	var err error
	// Jitter timing comes from a per-call rng — it shapes retry timing
	// only, never results, so it needs no seeding discipline.
	var jitter *rand.Rand
	for a := 0; a < ss.opts.MaxAttempts; a++ {
		if a > 0 {
			obsShardRetried.Inc()
			if jitter == nil {
				jitter = rand.New(rand.NewSource(int64(i) + 1))
			}
			backoff := time.Duration(jitter.Int63n(int64((200 * time.Microsecond) << uint(a))))
			select {
			case <-ctx.Done():
				return zero, ctx.Err()
			case <-time.After(backoff):
			}
		}
		var val T
		val, err = attemptShard(ss, ctx, pt, i, fn)
		if err == nil {
			return val, nil
		}
		if ctx.Err() != nil {
			return zero, ctx.Err()
		}
	}
	return zero, err
}

// attemptShard runs one attempt. With no deadline and no hedging
// configured — the default — it executes inline on the scatter
// goroutine: no extra goroutines, no timers, nothing on the fault-free
// hot path. Otherwise the attempt runs on the shard domain with a
// deadline timer and an optional hedged duplicate; whichever attempt
// finishes first (successfully) wins, and abandoned attempts drain
// into a buffered channel in the background.
func attemptShard[T any](ss *shardSet, ctx context.Context, pt string, i int, fn func(b ShardBackend) (T, error)) (T, error) {
	if ss.opts.Deadline == 0 && ss.opts.HedgeAfter == 0 {
		return execShard(ss, i, pt, true, fn)
	}
	type result struct {
		val T
		err error
	}
	ch := make(chan result, 2) // primary + hedge; buffered so abandoned attempts never block
	ss.domain.Go(func() {
		val, err := execShard(ss, i, pt, true, fn)
		ch <- result{val, err}
	})
	var deadline, hedge <-chan time.Time
	if ss.opts.Deadline > 0 {
		dt := time.NewTimer(ss.opts.Deadline)
		defer dt.Stop()
		deadline = dt.C
	}
	if ss.opts.HedgeAfter > 0 {
		ht := time.NewTimer(ss.opts.HedgeAfter)
		defer ht.Stop()
		hedge = ht.C
	}
	outstanding := 1
	var zero T
	var firstErr error
	for {
		select {
		case r := <-ch:
			outstanding--
			if r.err == nil {
				return r.val, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if outstanding == 0 {
				return zero, firstErr
			}
		case <-hedge:
			hedge = nil
			obsShardHedged.Inc()
			outstanding++
			ss.domain.Go(func() {
				// Hedged attempts skip the fault hooks: the shard's
				// injected-fault stream advances once per sequential
				// attempt regardless of hedging, keeping chaos runs
				// deterministic.
				val, err := execShard(ss, i, pt, false, fn)
				ch <- result{val, err}
			})
		case <-deadline:
			return zero, errShardDeadline
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
}

// execShard runs the shard backend with per-attempt fault hooks and
// panic isolation: an injected (or real) panic inside one shard's core
// becomes that shard's attempt error, never the query's. Remote
// backends additionally surface their own transport errors (breaker
// open, torn frame) through the same error path.
func execShard[T any](ss *shardSet, i int, pt string, rollFaults bool, fn func(b ShardBackend) (T, error)) (val T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: shard %d panic: %v", i, r)
		}
	}()
	if rollFaults {
		faultinject.Latency(pt)
		faultinject.Panic(pt)
		if e := faultinject.Err(pt); e != nil {
			return val, e
		}
	}
	return fn(ss.backends[i])
}

// sortedRangeIn returns the half-open [lo, hi) positions of a covering
// index of n entries — val(i) is entry i's value — whose values fall
// inside iv: two binary searches, the lower
// bound on iv.Lo and the first value past iv.Hi.
func sortedRangeIn(n int, val func(i int) float64, iv geom.Interval) (int, int) {
	lo := sort.Search(n, func(i int) bool { return val(i) >= iv.Lo })
	hi := lo + sort.Search(n-lo, func(i int) bool { return val(lo+i) > iv.Hi })
	return lo, hi
}

// CountExact is Count that refuses to degrade: on a sharded view with
// one or more shards unavailable it returns ErrPartialResult (the
// partial count alongside, for diagnostics). Exactness-critical callers
// — evaluation harnesses, the golden tests — use this instead of
// tolerating a silently partial answer.
func (v *View) CountExact(rect geom.Rect) (int, error) {
	res := v.ExecuteBatch([]BatchQuery{{Kind: BatchCount, Rect: rect}})
	return res.Count(0), res.exactErr()
}

// RowsInExact is RowsIn with CountExact's exactness contract.
func (v *View) RowsInExact(rect geom.Rect) ([]int, error) {
	res := v.ExecuteBatch([]BatchQuery{{Kind: BatchRows, Rect: rect}})
	return res.Rows(0), res.exactErr()
}
