package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/eval"
	"github.com/explore-by-example/aide/internal/explore"
)

// ThroughputConfig scales the multi-session compute-reuse benchmark
// (aidebench -throughput).
type ThroughputConfig struct {
	// Sessions is the number of concurrent exploration sessions
	// (default 8).
	Sessions int
	// Rows is the dataset size; index build is O(Rows log Rows) per view,
	// which is exactly the cost the shared registry amortizes
	// (default 150000).
	Rows int
	// Iterations is the steering iterations each session runs
	// (default 8).
	Iterations int
	// Seed drives dataset and target generation; session i runs with
	// Seed+i.
	Seed int64
	// CacheBytes is the shared predicate-result cache budget for the
	// shared-view mode (default 32 MiB).
	CacheBytes int64
}

// DefaultThroughputConfig returns the scale used for
// BENCH_throughput.json.
func DefaultThroughputConfig() ThroughputConfig {
	return ThroughputConfig{
		Sessions:   8,
		Rows:       150_000,
		Iterations: 8,
		Seed:       1,
		CacheBytes: 32 << 20,
	}
}

// ThroughputResult is one mode's aggregate over all sessions.
type ThroughputResult struct {
	// Mode is "per_session_views" (every session builds its own view, no
	// cache — the pre-reuse baseline) or "shared_view" (one registry view
	// plus one shared predicate-result cache).
	Mode string `json:"mode"`
	// WallMillis is the wall-clock time from launching the first session
	// to the last one finishing.
	WallMillis float64 `json:"wall_millis"`
	// SessionsPerSec is Sessions / wall seconds.
	SessionsPerSec float64 `json:"sessions_per_sec"`
	// P95IterationMillis is the 95th-percentile single-iteration latency
	// across every iteration of every session.
	P95IterationMillis float64 `json:"p95_iteration_millis"`
	// BytesPerSession and AllocsPerSession are heap traffic per session
	// (ReadMemStats deltas over the whole mode, divided by Sessions).
	BytesPerSession  int64 `json:"bytes_per_session"`
	AllocsPerSession int64 `json:"allocs_per_session"`
	// CacheHits/CacheMisses/CacheHitRate report the shared cache's
	// traffic (zero in per-session mode, which runs uncached).
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// ThroughputReport is the machine-readable compute-reuse trajectory
// written to BENCH_throughput.json.
type ThroughputReport struct {
	GOMAXPROCS int   `json:"gomaxprocs"`
	Sessions   int   `json:"sessions"`
	Rows       int   `json:"rows"`
	Iterations int   `json:"iterations"`
	CacheBytes int64 `json:"cache_bytes"`

	PerSession ThroughputResult `json:"per_session"`
	Shared     ThroughputResult `json:"shared"`

	// Speedup is shared sessions/sec over per-session sessions/sec.
	Speedup float64 `json:"speedup"`
	// BitIdentical reports every session's final query SQL matched the
	// uncached single-view reference in both modes — the correctness gate
	// the reuse rides on.
	BitIdentical bool `json:"bit_identical"`
	// BoundarySamples is the total boundary-exploitation samples across
	// the shared mode's sessions; zero would mean the workload never
	// reached the phase the cache is meant to serve.
	BoundarySamples int `json:"boundary_samples"`
}

// WriteJSON renders the report as indented JSON.
func (r *ThroughputReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// String renders a human-readable summary.
func (r *ThroughputReport) String() string {
	s := fmt.Sprintf("throughput: GOMAXPROCS=%d sessions=%d rows=%d iters=%d cache=%dB\n",
		r.GOMAXPROCS, r.Sessions, r.Rows, r.Iterations, r.CacheBytes)
	s += fmt.Sprintf("%-18s %12s %14s %12s %14s %10s\n",
		"mode", "sess/sec", "p95 iter ms", "MB/session", "allocs/sess", "hit rate")
	for _, m := range []ThroughputResult{r.PerSession, r.Shared} {
		s += fmt.Sprintf("%-18s %12.2f %14.2f %12.1f %14d %9.1f%%\n",
			m.Mode, m.SessionsPerSec, m.P95IterationMillis,
			float64(m.BytesPerSession)/(1<<20), m.AllocsPerSession, m.CacheHitRate*100)
	}
	s += fmt.Sprintf("speedup %.2fx, bit-identical %v, boundary samples %d\n",
		r.Speedup, r.BitIdentical, r.BoundarySamples)
	return s
}

// Gate returns an error when the report violates a correctness
// invariant: final queries not bit-identical to the uncached reference,
// or a boundary-exploitation workload that never hit the shared cache.
// Speedup is deliberately not gated here — absolute ratios are
// machine-dependent; the committed BENCH_throughput.json tracks them.
func (r *ThroughputReport) Gate() error {
	if !r.BitIdentical {
		return fmt.Errorf("throughput: cached/shared sessions are not bit-identical to the uncached reference")
	}
	if r.BoundarySamples == 0 {
		return fmt.Errorf("throughput: workload never exercised boundary exploitation; gate is vacuous")
	}
	if r.Shared.CacheHits == 0 {
		return fmt.Errorf("throughput: shared cache saw zero hits across %d sessions", r.Sessions)
	}
	return nil
}

// throughputSession runs one steering session to completion and returns
// its final SQL, per-iteration durations, and boundary sample count.
func throughputSession(view *engine.View, target eval.Target, seed int64, iters int) (string, []time.Duration, int, error) {
	opts := explore.DefaultOptions()
	opts.Seed = seed
	opts.MaxIterations = iters
	sess, err := explore.NewSession(view, eval.NewSimulatedUser(target), opts)
	if err != nil {
		return "", nil, 0, err
	}
	durs := make([]time.Duration, 0, iters)
	for i := 0; i < iters; i++ {
		res, err := sess.RunIteration()
		if err != nil {
			return "", nil, 0, err
		}
		durs = append(durs, res.Duration)
		if res.NewSamples == 0 {
			break
		}
	}
	boundary := sess.Stats().PhaseSamples[explore.PhaseBoundary]
	return sess.FinalQuery().SQL(), durs, boundary, nil
}

// runThroughputMode launches cfg.Sessions concurrent sessions, each over
// the view mkView returns for it, and aggregates the mode's cost.
func runThroughputMode(cfg ThroughputConfig, mode string, target eval.Target,
	mkView func(i int) (*engine.View, error)) (ThroughputResult, []string, int, error) {

	sqls := make([]string, cfg.Sessions)
	iterDurs := make([][]time.Duration, cfg.Sessions)
	boundary := make([]int, cfg.Sessions)
	errs := make([]error, cfg.Sessions)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := mkView(i)
			if err != nil {
				errs[i] = err
				return
			}
			sqls[i], iterDurs[i], boundary[i], errs[i] =
				throughputSession(v, target, cfg.Seed+int64(i), cfg.Iterations)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	for _, err := range errs {
		if err != nil {
			return ThroughputResult{}, nil, 0, err
		}
	}

	var all []time.Duration
	for _, ds := range iterDurs {
		all = append(all, ds...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p95 := time.Duration(0)
	if len(all) > 0 {
		p95 = all[min(len(all)-1, (len(all)*95)/100)]
	}
	totalBoundary := 0
	for _, b := range boundary {
		totalBoundary += b
	}
	res := ThroughputResult{
		Mode:             mode,
		WallMillis:       float64(wall.Nanoseconds()) / 1e6,
		SessionsPerSec:   float64(cfg.Sessions) / wall.Seconds(),
		BytesPerSession:  int64(after.TotalAlloc-before.TotalAlloc) / int64(cfg.Sessions),
		AllocsPerSession: int64(after.Mallocs-before.Mallocs) / int64(cfg.Sessions),
	}
	if len(all) > 0 {
		res.P95IterationMillis = float64(p95.Nanoseconds()) / 1e6
	}
	return res, sqls, totalBoundary, nil
}

// RunThroughput measures N concurrent sessions over per-session views
// (the pre-reuse baseline: every session pays its own index build, no
// cache) against N sessions over one registry-shared view with a shared
// predicate-result cache, verifying that every session's final query is
// bit-identical to an uncached reference either way.
func RunThroughput(cfg ThroughputConfig) (*ThroughputReport, error) {
	def := DefaultThroughputConfig()
	if cfg.Sessions <= 0 {
		cfg.Sessions = def.Sessions
	}
	if cfg.Rows <= 0 {
		cfg.Rows = def.Rows
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = def.Iterations
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = def.CacheBytes
	}

	tab := dataset.GenerateSDSS(cfg.Rows, cfg.Seed)
	attrs := []string{"rowc", "colc"}

	// Reference: uncached, unshared, computed outside any timed region.
	refView, err := engine.NewViewWorkers(tab, attrs, 1)
	if err != nil {
		return nil, err
	}
	target, err := eval.GenerateTarget(refView, eval.TargetSpec{NumAreas: 2, Size: eval.Large}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	refSQL := make([]string, cfg.Sessions)
	for i := range refSQL {
		sql, _, _, err := throughputSession(refView, target, cfg.Seed+int64(i), cfg.Iterations)
		if err != nil {
			return nil, err
		}
		refSQL[i] = sql
	}

	rep := &ThroughputReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Sessions:   cfg.Sessions,
		Rows:       cfg.Rows,
		Iterations: cfg.Iterations,
		CacheBytes: cfg.CacheBytes,
	}

	// Baseline: every session builds a private view inside the timed
	// region and runs uncached.
	perSession, perSQL, _, err := runThroughputMode(cfg, "per_session_views", target,
		func(int) (*engine.View, error) { return engine.NewView(tab, attrs) })
	if err != nil {
		return nil, err
	}
	rep.PerSession = perSession

	// Reuse: sessions acquire through a fresh registry (the first build
	// is paid once, inside the timed region) and share one cache.
	registry := engine.NewRegistry()
	cache := engine.NewCache(cfg.CacheBytes)
	shared, sharedSQL, boundary, err := runThroughputMode(cfg, "shared_view", target,
		func(int) (*engine.View, error) {
			v, err := registry.Acquire(tab, attrs)
			if err != nil {
				return nil, err
			}
			return v.WithCache(cache), nil
		})
	if err != nil {
		return nil, err
	}
	stats := cache.Stats()
	shared.CacheHits = stats.Hits
	shared.CacheMisses = stats.Misses
	shared.CacheHitRate = stats.HitRate()
	rep.Shared = shared
	rep.BoundarySamples = boundary

	if perSession.SessionsPerSec > 0 {
		rep.Speedup = shared.SessionsPerSec / perSession.SessionsPerSec
	}
	rep.BitIdentical = true
	for i := range refSQL {
		if perSQL[i] != refSQL[i] || sharedSQL[i] != refSQL[i] {
			rep.BitIdentical = false
			break
		}
	}
	return rep, nil
}
