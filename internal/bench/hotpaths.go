package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"time"

	"github.com/explore-by-example/aide/internal/cart"
	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/explore"
	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/grid"
	"github.com/explore-by-example/aide/internal/kmeans"
	"github.com/explore-by-example/aide/internal/obs"
	"github.com/explore-by-example/aide/internal/par"
)

// benchKernelSeconds records each kernel's timed reps at the configured
// worker count (the production path), labeled by kernel, so
// `aidebench -metrics` carries the same latency distributions
// BENCH_hotpaths.json summarizes as p50/p95/p99.
var benchKernelSeconds = obs.GetHistogramVec("bench_kernel_seconds", "kernel")

// HotpathConfig scales the worker-pool benchmark (aidebench -json).
type HotpathConfig struct {
	// Rows is the table size behind the scan and index-build kernels
	// (default 150000).
	Rows int
	// TrainPoints is the CART training-set size (default 6000).
	TrainPoints int
	// ClusterPoints is the k-means point count (default 40000).
	ClusterPoints int
	// Workers is the parallel side's worker count (0: automatic —
	// AIDE_WORKERS or GOMAXPROCS). The sequential side is always 1.
	Workers int
	// Seed drives dataset generation.
	Seed int64
	// MinTime is the minimum measurement window per timing pass
	// (default 200ms).
	MinTime time.Duration
}

// DefaultHotpathConfig returns the scale used for BENCH_hotpaths.json.
func DefaultHotpathConfig() HotpathConfig {
	return HotpathConfig{
		Rows:          150_000,
		TrainPoints:   6_000,
		ClusterPoints: 40_000,
		Seed:          1,
		MinTime:       200 * time.Millisecond,
	}
}

// HotpathResult is one kernel's sequential-vs-parallel measurement.
type HotpathResult struct {
	// Name identifies the kernel: cart_train, grid_scan, index_build,
	// sample_plan, kmeans_cluster, kmeans_hierarchy.
	Name string `json:"name"`
	// NsPerOpWorkers1 is ns/op on the forced-sequential path.
	NsPerOpWorkers1 int64 `json:"ns_per_op_workers_1"`
	// NsPerOpWorkersN is ns/op at the configured worker count.
	NsPerOpWorkersN int64 `json:"ns_per_op_workers_n"`
	// Speedup is NsPerOpWorkers1 / NsPerOpWorkersN.
	Speedup float64 `json:"speedup"`
	// BytesPerOpWorkers1/N and AllocsPerOpWorkers1/N track heap traffic
	// per op (testing.B AllocedBytesPerOp-style), so allocation
	// regressions on the hot paths are as visible as time regressions.
	BytesPerOpWorkers1  int64 `json:"bytes_per_op_workers_1"`
	BytesPerOpWorkersN  int64 `json:"bytes_per_op_workers_n"`
	AllocsPerOpWorkers1 int64 `json:"allocs_per_op_workers_1"`
	AllocsPerOpWorkersN int64 `json:"allocs_per_op_workers_n"`
	// P50/P95/P99NsWorkers1/N are nearest-rank latency quantiles over
	// the individual timed reps of each pass. ns_per_op is the mean; the
	// spread between p50 and p99 exposes jitter (GC pauses, scheduling)
	// that a mean alone hides.
	P50NsWorkers1 int64 `json:"p50_ns_workers_1"`
	P95NsWorkers1 int64 `json:"p95_ns_workers_1"`
	P99NsWorkers1 int64 `json:"p99_ns_workers_1"`
	P50NsWorkersN int64 `json:"p50_ns_workers_n"`
	P95NsWorkersN int64 `json:"p95_ns_workers_n"`
	P99NsWorkersN int64 `json:"p99_ns_workers_n"`
	// Identical reports that the parallel output matched the sequential
	// output exactly — the determinism gate the speedup rides on.
	Identical bool `json:"identical"`
}

// HotpathReport is the machine-readable perf trajectory written to
// BENCH_hotpaths.json so future changes can be compared against it.
type HotpathReport struct {
	GOMAXPROCS    int `json:"gomaxprocs"`
	Workers       int `json:"workers"`
	Rows          int `json:"rows"`
	TrainPoints   int `json:"train_points"`
	ClusterPoints int `json:"cluster_points"`
	// Warning is set when the run configuration makes a headline number
	// misleading — in particular when GOMAXPROCS < Workers, where the
	// "parallel" side time-slices its workers on fewer cores and every
	// speedup figure is a single-core artifact. Speedups are never
	// reported without this field explaining the caveat.
	Warning string          `json:"warning,omitempty"`
	Results []HotpathResult `json:"results"`
	// ShardRoundtripsPerIteration is the measured scatter-round count per
	// steering iteration over a 4-shard session once discovery has
	// drained its frontier. The batched execution path's contract is ≤ 1:
	// at most one ExecuteBatch scatter — one backend round per healthy
	// shard — per iteration, and none when every sample resolves on the
	// coordinator's covering index.
	ShardRoundtripsPerIteration float64 `json:"shard_roundtrips_per_iteration"`
}

// WriteJSON renders the report as indented JSON.
func (r *HotpathReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// String renders a human-readable summary table.
func (r *HotpathReport) String() string {
	s := fmt.Sprintf("hotpaths: GOMAXPROCS=%d workers=%d rows=%d\n", r.GOMAXPROCS, r.Workers, r.Rows)
	if r.Warning != "" {
		s += "WARNING: " + r.Warning + "\n"
	}
	s += fmt.Sprintf("%-16s %14s %14s %14s %14s %8s %12s %12s %10s\n",
		"kernel", "w=1 ns/op", "w=N ns/op", "w=N p50", "w=N p99", "speedup", "w=N B/op", "w=N allocs", "identical")
	for _, b := range r.Results {
		s += fmt.Sprintf("%-16s %14d %14d %14d %14d %7.2fx %12d %12d %10v\n",
			b.Name, b.NsPerOpWorkers1, b.NsPerOpWorkersN, b.P50NsWorkersN, b.P99NsWorkersN,
			b.Speedup, b.BytesPerOpWorkersN, b.AllocsPerOpWorkersN, b.Identical)
	}
	s += fmt.Sprintf("shard roundtrips per iteration: %.2f (batched session loop; contract ≤ 1 scatter per iteration)\n",
		r.ShardRoundtripsPerIteration)
	return s
}

// measurement is one timed pass's per-op cost.
type measurement struct {
	nsPerOp     int64
	bytesPerOp  int64
	allocsPerOp int64
	// p50Ns/p95Ns/p99Ns are nearest-rank quantiles over the pass's
	// individual rep durations.
	p50Ns, p95Ns, p99Ns int64
}

// measure times op: one warmup call, then repeated timing passes until
// minTime has elapsed, returning per-op time (mean and p50/p95/p99 over
// the reps) and heap traffic over the measured passes (ReadMemStats
// deltas, the same counters -benchmem reports). Each rep is also
// observed into hist when non-nil, so the full distribution lands in
// the metrics registry.
func measure(minTime time.Duration, hist *obs.Histogram, op func()) measurement {
	op() // warmup
	var elapsed time.Duration
	var samples []time.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for elapsed < minTime {
		start := time.Now()
		op()
		d := time.Since(start)
		elapsed += d
		samples = append(samples, d)
		if hist != nil {
			hist.Observe(d.Seconds())
		}
	}
	runtime.ReadMemStats(&after)
	n := int64(len(samples))
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return measurement{
		nsPerOp:     elapsed.Nanoseconds() / n,
		bytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / n,
		allocsPerOp: int64(after.Mallocs-before.Mallocs) / n,
		p50Ns:       nearestRankNs(samples, 0.50),
		p95Ns:       nearestRankNs(samples, 0.95),
		p99Ns:       nearestRankNs(samples, 0.99),
	}
}

// nearestRankNs returns the q-th nearest-rank quantile of the sorted
// durations in nanoseconds.
func nearestRankNs(sorted []time.Duration, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx].Nanoseconds()
}

// RunHotpaths benchmarks the hot paths — CART training, grid scanning
// (unsharded against 4 shards), batching, view index construction,
// sample planning and k-means clustering — each as a pair of sides,
// workers=1 against the configured worker count unless the kernel's
// comment names other sides, verifying on every kernel that both sides
// produce identical output.
func RunHotpaths(cfg HotpathConfig) (*HotpathReport, error) {
	def := DefaultHotpathConfig()
	if cfg.Rows <= 0 {
		cfg.Rows = def.Rows
	}
	if cfg.TrainPoints <= 0 {
		cfg.TrainPoints = def.TrainPoints
	}
	if cfg.ClusterPoints <= 0 {
		cfg.ClusterPoints = def.ClusterPoints
	}
	if cfg.MinTime <= 0 {
		cfg.MinTime = def.MinTime
	}
	workers := par.Resolve(cfg.Workers)
	rep := &HotpathReport{
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Workers:       workers,
		Rows:          cfg.Rows,
		TrainPoints:   cfg.TrainPoints,
		ClusterPoints: cfg.ClusterPoints,
	}
	if rep.GOMAXPROCS < rep.Workers {
		rep.Warning = fmt.Sprintf(
			"GOMAXPROCS=%d < workers=%d: the parallel side is time-sliced on %d core(s), so speedup figures do not measure multicore scaling",
			rep.GOMAXPROCS, rep.Workers, rep.GOMAXPROCS)
	}

	// cart_train: induction over a 4-d labeled set, the per-iteration
	// classifier retraining cost of the steering loop.
	points, labels := hotpathTrainingSet(cfg.TrainPoints, 4, cfg.Seed)
	trainAt := func(w int) *cart.Tree {
		p := cart.DefaultParams()
		p.Workers = w
		t, err := cart.Train(points, labels, p)
		if err != nil {
			panic(err)
		}
		return t
	}
	seqTree, parTree := trainAt(1), trainAt(workers)
	rep.Results = append(rep.Results, hotpathResult("cart_train",
		measure(cfg.MinTime, nil, func() { trainAt(1) }),
		measure(cfg.MinTime, benchKernelSeconds.With("cart_train"), func() { trainAt(workers) }),
		seqTree.String(nil) == parTree.String(nil)))

	// grid_scan: Count + RowsIn over a large region of a 2-d view — the
	// shape of evaluation queries and density probes. The w=1 column is
	// the unsharded view, the wN column the same queries scattered over
	// 4 supervised shards: the fan-out/gather overhead the robustness
	// machinery costs on a healthy run, gated on bit-identical results.
	tab := dataset.GenerateSDSS(cfg.Rows, cfg.Seed)
	seqView, err := engine.NewViewWorkers(tab, []string{"rowc", "colc"}, 1)
	if err != nil {
		return nil, err
	}
	shardView := seqView.WithShards(engine.ShardOptions{Shards: 4})
	rect := geom.R(10, 90, 10, 90)
	scanIdentical := seqView.Count(rect) == shardView.Count(rect) &&
		reflect.DeepEqual(seqView.RowsIn(rect), shardView.RowsIn(rect))
	rep.Results = append(rep.Results, hotpathResult("grid_scan",
		measure(cfg.MinTime, nil, func() { seqView.Count(rect); seqView.RowsIn(rect) }),
		measure(cfg.MinTime, benchKernelSeconds.With("grid_scan"), func() { shardView.Count(rect); shardView.RowsIn(rect) }),
		scanIdentical))

	// grid_scan_batched: 16 small probes marching across the clustered
	// sky view's sparse dec tail, alternating Count / RowsIn — the shape
	// of one session iteration's probe set, where per-query fixed cost
	// dominates the shared row work. The w=1 column is the per-rect loop,
	// sixteen batches of one; the wN column is ONE ExecuteBatch of
	// sixteen. Both run on the same single-threaded view, so the speedup
	// is pure batching: shared planning and cell walks, one observation
	// per pass instead of sixteen. Samples are left out: a loop of
	// SampleRect batches of one would add the same draws to both sides;
	// sample extraction has its own row below. Gated on bit-identical
	// counts and rows.
	skyView, err := engine.NewViewWorkers(tab, []string{"ra", "dec"}, 1)
	if err != nil {
		return nil, err
	}
	batchQueries := make([]engine.BatchQuery, 16)
	for i := range batchQueries {
		lo, dlo := 8+float64(i)*5.5, 82+float64(i)*0.5
		batchQueries[i] = engine.BatchQuery{Kind: engine.BatchCount, Rect: geom.R(lo, lo+2, dlo, dlo+2)}
		if i%2 == 1 {
			batchQueries[i].Kind = engine.BatchRows
		}
	}
	runSequential := func() {
		for _, q := range batchQueries {
			if q.Kind == engine.BatchCount {
				skyView.Count(q.Rect)
			} else {
				skyView.RowsIn(q.Rect)
			}
		}
	}
	batchIdentical := func() bool {
		br := skyView.ExecuteBatch(batchQueries)
		for i, q := range batchQueries {
			if q.Kind == engine.BatchCount {
				if br.Count(i) != skyView.Count(q.Rect) {
					return false
				}
			} else if !slices.Equal(br.Rows(i), skyView.RowsIn(q.Rect)) {
				return false
			}
		}
		return true
	}()
	rep.Results = append(rep.Results, hotpathResult("grid_scan_batched",
		measure(cfg.MinTime, nil, runSequential),
		measure(cfg.MinTime, benchKernelSeconds.With("grid_scan_batched"), func() { skyView.ExecuteBatch(batchQueries) }),
		batchIdentical))

	// index_build: NewView over four attributes — per-attribute
	// normalization + sorted indexes + grid-cell assignment.
	attrs := []string{"ra", "dec", "rowc", "field"}
	buildAt := func(w int) *engine.View {
		v, err := engine.NewViewWorkers(tab, attrs, w)
		if err != nil {
			panic(err)
		}
		return v
	}
	bSeq, bPar := buildAt(1), buildAt(workers)
	probe := geom.R(20, 70, 20, 70, 20, 70, 20, 70)
	rep.Results = append(rep.Results, hotpathResult("index_build",
		measure(cfg.MinTime, nil, func() { buildAt(1) }),
		measure(cfg.MinTime, benchKernelSeconds.With("index_build"), func() { buildAt(workers) }),
		bSeq.Count(probe) == bPar.Count(probe)))

	// sample_plan: one discovery step's sample extraction — one random
	// row from a gamma-box around each of 16 level-0 cell centres of the
	// 4-d view. The w=1 column is the cold plan path (per-cell match
	// counts, and the single cell a drawn index lands in re-evaluated),
	// the wN column the same step on a cached view whose plans are
	// memoized — every later session's cost on a shared lattice. Gated on
	// the warm draws equalling the cold ones, rows and rng position, and
	// every drawn row lying in its rect; identity with the materializing
	// layout is the engine tests' job (TestSamplePlanMatchesReference).
	planQueries := levelZeroSamples(4, 16)
	planView := bSeq.WithCache(engine.NewCache(1 << 20))
	drawPlans := func(v *engine.View, rng *rand.Rand) [][]int {
		br := v.ExecuteBatch(planQueries)
		out := make([][]int, len(planQueries))
		for i := range planQueries {
			out[i] = br.Sample(i, rng)
		}
		return out
	}
	planIdentical := func() bool {
		coldRng := rand.New(rand.NewSource(cfg.Seed))
		want := drawPlans(bSeq, coldRng)
		next := coldRng.Int63()
		for i, rows := range want {
			for _, r := range rows {
				if !bSeq.Contains(planQueries[i].Rect, r) {
					return false
				}
			}
		}
		for range 2 { // storing pass, then warm
			rng := rand.New(rand.NewSource(cfg.Seed))
			if !reflect.DeepEqual(drawPlans(planView, rng), want) || rng.Int63() != next {
				return false
			}
		}
		return true
	}()
	coldRng := rand.New(rand.NewSource(cfg.Seed))
	warmRng := rand.New(rand.NewSource(cfg.Seed))
	rep.Results = append(rep.Results, hotpathResult("sample_plan",
		measure(cfg.MinTime, nil, func() { drawPlans(bSeq, coldRng) }),
		measure(cfg.MinTime, benchKernelSeconds.With("sample_plan"), func() { drawPlans(planView, warmRng) }),
		planIdentical))

	// kmeans_cluster: the assignment-dominated clustering behind
	// skew-aware discovery and misclassified exploitation. k-means fits
	// one clustering on one goroutine (its bounds leave a compare per
	// point), so both sides time that one kernel. identical: two runs
	// from one seed are bit-identical and leave the rng at the same
	// position.
	cpoints := hotpathClusterSet(cfg.ClusterPoints, 4, cfg.Seed)
	cluster := func(rng *rand.Rand) *kmeans.Result {
		res, err := kmeans.Cluster(cpoints, kmeans.Params{K: 16, MaxIters: 20}, rng)
		if err != nil {
			panic(err)
		}
		return res
	}
	clusterSeeded := func() { cluster(rand.New(rand.NewSource(cfg.Seed))) }
	rep.Results = append(rep.Results, hotpathResult("kmeans_cluster",
		measure(cfg.MinTime, nil, clusterSeeded),
		measure(cfg.MinTime, benchKernelSeconds.With("kmeans_cluster"), clusterSeeded),
		sameClustering(cfg.Seed, func(rng *rand.Rand) any { return cluster(rng) })))

	// kmeans_hierarchy: the three-level fit clustering discovery runs
	// inside session creation at default options — a 2000-point sample of
	// a skewed 2-d space, K = 16/64/250, one rng threaded through the
	// levels. The _1 side fits the levels one Cluster call at a time, the
	// _n side with one ClusterLevels call, whose Lloyd loops overlap the
	// later levels' seeding; speedup is the pipeline's. identical: the
	// two sides are bit-identical and leave the rng at the same position.
	hpoints := hotpathClusterSet(2000, 2, cfg.Seed)
	hks := []int{16, 64, 250}
	hierarchySeq := func(rng *rand.Rand) []*kmeans.Result {
		levels := make([]*kmeans.Result, 0, len(hks))
		for _, k := range hks {
			res, err := kmeans.Cluster(hpoints, kmeans.Params{K: k, MaxIters: 20}, rng)
			if err != nil {
				panic(err)
			}
			levels = append(levels, res)
		}
		return levels
	}
	hierarchy := func(rng *rand.Rand) []*kmeans.Result {
		levels, err := kmeans.ClusterLevels(context.Background(), hpoints, hks, kmeans.Params{MaxIters: 20}, rng)
		if err != nil {
			panic(err)
		}
		return levels
	}
	rSeq, rLevels := rand.New(rand.NewSource(cfg.Seed)), rand.New(rand.NewSource(cfg.Seed))
	hierarchyIdentical := reflect.DeepEqual(hierarchySeq(rSeq), hierarchy(rLevels)) && rSeq.Int63() == rLevels.Int63()
	rep.Results = append(rep.Results, hotpathResult("kmeans_hierarchy",
		measure(cfg.MinTime, nil, func() { hierarchySeq(rand.New(rand.NewSource(cfg.Seed))) }),
		measure(cfg.MinTime, benchKernelSeconds.With("kmeans_hierarchy"), func() { hierarchy(rand.New(rand.NewSource(cfg.Seed))) }),
		hierarchyIdentical))

	rt, err := measureShardRoundtrips(cfg)
	if err != nil {
		return nil, err
	}
	rep.ShardRoundtripsPerIteration = rt

	return rep, nil
}

// measureShardRoundtrips runs a short steering session over a 4-shard
// view and reports scatter rounds per iteration once discovery has
// drained its frontier — the round-trip economy the batched session loop
// is built for. The contract is ≤ 1: each iteration's exploitation sample
// set travels as at most one batch, and index-path samples resolve on the
// coordinator without one.
func measureShardRoundtrips(cfg HotpathConfig) (float64, error) {
	rows := cfg.Rows
	if rows > 30_000 {
		rows = 30_000 // the metric counts rounds, not rows; keep it cheap
	}
	tab := dataset.GenerateSDSS(rows, cfg.Seed)
	v, err := engine.NewViewWorkers(tab, []string{"rowc", "colc"}, 1)
	if err != nil {
		return 0, err
	}
	sv := v.WithShards(engine.ShardOptions{Shards: 4})
	target := geom.R(5, 45, 5, 45)
	opts := explore.DefaultOptions()
	// No zooming: discovery drains all 16 level-0 cells in the first
	// iteration, so every measured iteration is pure exploitation.
	opts.MaxZoomLevels = 0
	s, err := explore.NewSession(sv, explore.OracleFunc(func(view *engine.View, row int) bool {
		return target.Contains(view.NormPoint(row))
	}), opts)
	if err != nil {
		return 0, err
	}
	if _, err := s.RunIteration(); err != nil { // discovery iteration
		return 0, err
	}
	scatters := obs.GetCounter("engine.shard_scatter_rounds")
	before := scatters.Value()
	const iters = 5
	for i := 0; i < iters; i++ {
		if _, err := s.RunIteration(); err != nil {
			return 0, err
		}
	}
	return float64(scatters.Value()-before) / iters, nil
}

// levelZeroSamples returns n one-row sample queries shaped like object
// discovery's level-0 retrievals in d dimensions: a box of
// GammaFrac * half the cell width around the centres of n level-0 cells
// spread evenly over the lattice.
func levelZeroSamples(d, n int) []engine.BatchQuery {
	opts := explore.DefaultOptions()
	g, err := grid.New(d, opts.Beta0)
	if err != nil {
		panic(err)
	}
	cells := g.CellsAt(0)
	gamma := opts.GammaFrac * g.Width(0) / 2
	out := make([]engine.BatchQuery, n)
	for i := range out {
		c := cells[i*len(cells)/n]
		out[i] = engine.BatchQuery{Kind: engine.BatchSample, N: 1, Rect: geom.RectAround(g.Center(c), gamma, geom.NewRect(d))}
	}
	return out
}

// sameClustering runs fit twice from one seed and reports whether the
// two results are deeply equal and leave the rng at the same position.
func sameClustering(seed int64, fit func(*rand.Rand) any) bool {
	r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	a, b := fit(r1), fit(r2)
	return reflect.DeepEqual(a, b) && r1.Int63() == r2.Int63()
}

func hotpathResult(name string, seq, parl measurement, identical bool) HotpathResult {
	speedup := 0.0
	if parl.nsPerOp > 0 {
		speedup = float64(seq.nsPerOp) / float64(parl.nsPerOp)
	}
	return HotpathResult{
		Name:                name,
		NsPerOpWorkers1:     seq.nsPerOp,
		NsPerOpWorkersN:     parl.nsPerOp,
		Speedup:             speedup,
		BytesPerOpWorkers1:  seq.bytesPerOp,
		BytesPerOpWorkersN:  parl.bytesPerOp,
		AllocsPerOpWorkers1: seq.allocsPerOp,
		AllocsPerOpWorkersN: parl.allocsPerOp,
		P50NsWorkers1:       seq.p50Ns,
		P95NsWorkers1:       seq.p95Ns,
		P99NsWorkers1:       seq.p99Ns,
		P50NsWorkersN:       parl.p50Ns,
		P95NsWorkersN:       parl.p95Ns,
		P99NsWorkersN:       parl.p99Ns,
		Identical:           identical,
	}
}

// hotpathTrainingSet labels uniform d-dim points against two target boxes.
func hotpathTrainingSet(n, d int, seed int64) ([]geom.Point, []bool) {
	rng := rand.New(rand.NewSource(seed))
	targets := []geom.Rect{make(geom.Rect, d), make(geom.Rect, d)}
	for i := range targets[0] {
		targets[0][i] = geom.Interval{Lo: 20, Hi: 40}
		targets[1][i] = geom.Interval{Lo: 55, Hi: 80}
	}
	points := make([]geom.Point, n)
	labels := make([]bool, n)
	for i := range points {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = rng.Float64() * 100
		}
		points[i] = p
		labels[i] = targets[0].Contains(p) || targets[1].Contains(p)
	}
	return points, labels
}

// hotpathClusterSet draws d-dim points from a handful of Gaussian blobs.
func hotpathClusterSet(n, d int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	centers := make([]geom.Point, 6)
	for i := range centers {
		c := make(geom.Point, d)
		for j := range c {
			c[j] = rng.Float64() * 100
		}
		centers[i] = c
	}
	points := make([]geom.Point, n)
	for i := range points {
		c := centers[rng.Intn(len(centers))]
		p := make(geom.Point, d)
		for j := range p {
			p[j] = c[j] + rng.NormFloat64()*6
		}
		points[i] = p
	}
	return points
}
