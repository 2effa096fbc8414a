package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/durable"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/explore"
	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/kmeans"
	"github.com/explore-by-example/aide/internal/service"
)

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runTraced produces the per-layer metrics of a workload from outside
// the layers, four ways (README.md, "Per-layer metrics"):
//
//	C  counter deltas of the spawned server's GET /v1/metrics, and the
//	   processes' /proc accounting, over a fixed list of sessions;
//	T  spans recorded by the decorators of trace.go around the same
//	   sessions run against the stack assembled in this process;
//	R  a replay of those sessions through explore.NewSession /
//	   RunIteration with an in-memory oracle, reading IterationResult;
//	P  direct timed calls of a layer's public functions.
//
// The session list is fixed (w.TracedSessions), so every count repeats
// exactly on a one-client workload.
func runTraced(ctx context.Context, e env, w workload, seed int64, t *tally) (map[string]metric, error) {
	m := make(map[string]metric)
	t0 := time.Now()
	tab := dataset.GenerateSDSS(w.Rows, w.datasetSeed(seed))
	m["dataset.generate_s"] = metric{time.Since(t0).Seconds(), "s", 1}

	// C: the deployed topology.
	sp, err := runSpawned(ctx, e, w, tab, seed, 0, w.TracedSessions, 1, 0)
	if err != nil {
		return nil, err
	}
	t.countSessions(sp.Drive.Sessions)
	if t.Failed > 0 {
		return nil, fmt.Errorf("spawned sessions failed: %s", strings.Join(t.Problems, "; "))
	}
	countMetrics(m, sp)

	// T: the same sessions against the in-process stack, traced.
	runDir := e.runDir(w)
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	tr := newTracer()
	st, err := buildStack(w, tab, runDir, tr)
	if err != nil {
		return nil, err
	}
	defer st.close()
	m["engine.view_build_s"] = metric{st.viewBuild.Seconds(), "s", 1}
	m["shardrpc.dial_hello_ms"] = metric{ms(st.dialHello), "ms", w.Workers}

	client := newClient(st.base)
	warm, err := w.session(tab, seed, -1)
	if err != nil {
		return nil, err
	}
	if res := runSession(ctx, client, tab, warm, nil); res.Err != nil {
		return nil, fmt.Errorf("traced warm-up: %w", res.Err)
	}
	in0, out0 := st.bytesIn.Load(), st.bytesOut.Load()
	var specs []sessionSpec
	var traced []sessionResult
	for i := 0; i < w.TracedSessions; i++ {
		spec, err := w.session(tab, seed, i)
		if err != nil {
			return nil, err
		}
		res := runSession(ctx, client, tab, spec, tr)
		specs = append(specs, spec)
		traced = append(traced, res)
		// The traced stack is one more implementation of the topology:
		// it too must predict what the spawned processes predicted.
		t.check(res.Err == nil && res.SQL == sp.Drive.Sessions[i].SQL,
			"traced session %d: err %v, SQL differs from the spawned run's", i, res.Err)
	}
	t.countSessions(traced)
	if t.Failed > 0 {
		return nil, fmt.Errorf("traced sessions failed: %s", strings.Join(t.Problems, "; "))
	}
	iters := 0.0
	var fs []float64
	for i, s := range traced {
		iters += float64(s.Iterations)
		f, err := w.fMeasure(tab, specs[i], s.Areas)
		if err != nil {
			return nil, err
		}
		fs = append(fs, f)
	}
	m["explore.f_measure"] = metric{mean(fs), "ratio", len(fs)}
	m["shardrpc.bytes_in_per_iter"] = metric{float64(st.bytesIn.Load()-in0) / iters, "B", int(iters)}
	m["shardrpc.bytes_out_per_iter"] = metric{float64(st.bytesOut.Load()-out0) / iters, "B", int(iters)}
	spans := tr.snapshot()
	if err := writeSpans(filepath.Join(e.root, ".bench_build", "spans-"+w.Name+".jsonl"), spans); err != nil {
		return nil, err
	}
	spanMetrics(m, spans, traced, t)

	// R and P run with no client exchange open, so the decorators stay
	// silent and add nothing to the spans above.
	if err := replayMetrics(m, w, st.view, specs, traced, t); err != nil {
		return nil, err
	}
	if err := directMetrics(m, w, st.view, specs, runDir); err != nil {
		return nil, err
	}
	return m, ctx.Err()
}

// countMetrics fills the source-C metrics from the spawned run.
func countMetrics(m map[string]metric, sp spawnedResult) {
	iters, labels, clientSecs := 0.0, 0.0, 0.0
	for _, s := range sp.Drive.Sessions {
		iters += float64(s.Iterations)
		labels += float64(len(s.Steps))
		clientSecs += s.FirstSample.Seconds()
		for _, d := range s.Steps {
			clientSecs += d.Seconds()
		}
	}
	c := sp.Counts
	n := int(iters)
	per := func(v float64) metric { return metric{v / iters, "count", n} }
	m["service.requests_per_iter"] = per(sumPrefix(c, "service.http.requests.", ".metrics", ".healthz"))
	// What a round trip costs outside the handler, across the process
	// boundary: the clients' stopwatch over every create, label and sample
	// exchange, minus the time the server's own histograms put inside
	// the handlers, per exchange.
	handlerSecs, exchanges := 0.0, 0.0
	for _, ep := range []string{"create_session", "label", "sample"} {
		handlerSecs += c["service.http.seconds."+ep+".sum"]
		exchanges += c["service.http.seconds."+ep+".count"]
	}
	m["service.http_overhead_us"] = metric{ratio(clientSecs-handlerSecs, exchanges) * 1e6, "us", int(exchanges)}
	m["service.http_errors"] = metric{c["service.http.errors"], "count", 0}
	m["service.http_shed"] = metric{c["service.http.shed"], "count", 0}
	m["durable.appends_per_label"] = metric{c["aide_wal_appends_total"] / labels, "count", int(labels)}
	m["durable.append_retries"] = metric{c["aide_wal_append_retries_total"], "count", 0}
	m["engine.rows_examined_per_iter"] = per(c["engine.rows_examined"])
	m["engine.queries_per_iter"] = per(c["engine.queries"])
	m["engine.cache_hit_ratio"] = metric{ratio(c["engine.cache.hits"], c["engine.cache.hits"]+c["engine.cache.misses"]), "ratio",
		int(c["engine.cache.hits"] + c["engine.cache.misses"])}
	m["engine.scatter_rounds_per_iter"] = per(c["engine.shard_scatter_rounds"])
	m["shardrpc.calls_per_iter"] = per(sumPrefix(c, "engine_shard_rpc{", `"hello"}`, `"retried"}`, `"error"}`))
	m["shardrpc.errors"] = metric{c[`engine_shard_rpc{op="error"}`], "count", 0}
	m["shardrpc.retried"] = metric{c[`engine_shard_rpc{op="retried"}`], "count", 0}
	m["par.tasks_per_iter"] = per(c["par.tasks"])
	m["par.inline_runs"] = metric{c["par.inline_runs"], "count", 0}
	m["proc.server_cpu_ms_per_iter"] = metric{sp.Server.cpuMillis / iters, "ms", n}
	m["proc.worker_cpu_ms_per_iter"] = metric{sp.Workers.cpuMillis / iters, "ms", n}
	m["proc.server_rss_mb"] = metric{sp.Server.peakRSSMB, "MB", 0}
	m["proc.worker_rss_mb"] = metric{sp.Workers.peakRSSMB, "MB", 0}
}

// spanMetrics fills the source-T metrics. Durations come from the spans
// as recorded; self times from the spans clipped to their parents, whose
// trees close: a trace's self times sum to its root's duration.
func spanMetrics(m map[string]metric, spans []span, sessions []sessionResult, t *tally) {
	byName := make(map[string][]span)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	durs := func(name string) []float64 {
		out := make([]float64, len(byName[name]))
		for i, s := range byName[name] {
			out[i] = us(s.dur())
		}
		return out
	}
	med := func(name, unit string, scale float64) metric {
		d := durs(name)
		return metric{median(d) / scale, unit, len(d)}
	}
	m["service.handle_label_us"] = med("service.handle.label", "us", 1)
	m["service.handle_sample_us"] = med("service.handle.sample", "us", 1)
	m["service.handle_create_ms"] = med("service.handle.create", "ms", 1000)
	m["service.handle_delete_ms"] = med("service.handle.delete", "ms", 1000)
	m["engine.shard_call_us"] = med("engine.shard_call", "us", 1)
	m["shardrpc.worker_exec_us"] = med("shardrpc.worker_exec", "us", 1)

	// Transport cost of a shard call: the coordinator-side call minus the
	// worker-side execution it caused. Scatter skew: within a trace the
	// k-th call to each shard is round k; the round waits for its slowest.
	workerOf := make(map[int64]time.Duration)
	for _, x := range byName["shardrpc.worker_exec"] {
		workerOf[x.Parent] += x.dur()
	}
	var rpc, skew []float64
	type roundKey struct {
		trace string
		k     int
	}
	nth := make(map[string]int) // trace + shard -> calls seen so far
	rounds := make(map[roundKey][]time.Duration)
	shards := make(map[int]bool)
	calls := append([]span(nil), byName["engine.shard_call"]...)
	sort.Slice(calls, func(i, j int) bool { return calls[i].Start < calls[j].Start })
	for _, c := range calls {
		if w, ok := workerOf[c.ID]; ok {
			rpc = append(rpc, us(c.dur()-w))
		}
		shards[c.Shard] = true
		key := fmt.Sprintf("%s#%d", c.Trace, c.Shard)
		rk := roundKey{c.Trace, nth[key]}
		nth[key]++
		rounds[rk] = append(rounds[rk], c.dur())
	}
	for _, ds := range rounds {
		if len(ds) != len(shards) {
			continue // a retried or dropped shard: not a clean round
		}
		lo, hi := ds[0], ds[0]
		for _, d := range ds {
			lo, hi = min(lo, d), max(hi, d)
		}
		skew = append(skew, us(hi-lo))
	}
	m["shardrpc.rpc_overhead_us"] = metric{median(rpc), "us", len(rpc)}
	m["engine.scatter_skew_us"] = metric{median(skew), "us", len(skew)}

	// The budget: each instant of every step goes to the deepest layer
	// with a span open, per iteration. sample_wait is the GET /sample
	// handlers' self time: what the steering goroutine made the user wait.
	self := selfTimes(spans)
	iters, clientSteps := 0.0, 0.0
	var waits []float64
	for _, s := range sessions {
		iters += float64(s.Iterations)
		total := 0.0
		for _, d := range s.Steps {
			total += ms(d)
		}
		clientSteps += total
		waits = append(waits, total/float64(s.Iterations))
	}
	m["trace.iter_wait_ms"] = metric{median(waits), "ms", len(waits)}
	byTrace := make(map[string][]span)
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	var layers [numLayers]float64
	sampleSelf := 0.0
	for _, root := range byName["client.step"] {
		for l, d := range layerBudget(root, byTrace[root.Trace]) {
			layers[l] += ms(d)
		}
		for _, s := range byTrace[root.Trace] {
			if s.Name == "service.handle.sample" {
				sampleSelf += ms(self[s.ID])
			}
		}
	}
	n := int(iters)
	m["service.sample_wait_ms_per_iter"] = metric{sampleSelf / iters, "ms", n}
	m["budget.client_http_ms_per_iter"] = metric{layers[layerClient] / iters, "ms", n}
	m["budget.service_ms_per_iter"] = metric{layers[layerService] / iters, "ms", n}
	m["budget.shardrpc_ms_per_iter"] = metric{layers[layerShardRPC] / iters, "ms", n}
	m["budget.worker_exec_ms_per_iter"] = metric{layers[layerWorker] / iters, "ms", n}
	total := layers[layerClient] + layers[layerService] + layers[layerShardRPC] + layers[layerWorker]
	m["budget.step_ms_per_iter"] = metric{total / iters, "ms", n}
	// The budget is built from the spans below the step's root only, and
	// checked against the client's own stopwatch, which the tracer never
	// touches: spans that went missing leave a hole the closure shows.
	closure := ratio(total, clientSteps)
	m["budget.closure"] = metric{closure, "ratio", len(byName["client.step"])}
	t.check(closure > 0.95 && closure < 1.05, "per-layer budget does not close: the layers sum to %.3f of the step time the client measured", closure)
	// A hole too small for the closure still shows in the tree: every
	// client operation reached exactly one handler, every shard call that
	// has a traced worker exactly one execution.
	children := make(map[int64]int)
	for _, s := range spans {
		children[s.Parent]++
	}
	orphans := 0
	for _, name := range []string{"client.create", "client.label", "client.sample", "client.status", "client.query", "client.delete"} {
		for _, s := range byName[name] {
			if children[s.ID] != 1 {
				orphans++
			}
		}
	}
	if len(byName["shardrpc.worker_exec"]) > 0 {
		for _, s := range byName["engine.shard_call"] {
			if children[s.ID] != 1 {
				orphans++
			}
		}
	}
	t.check(orphans == 0, "%d client operations or shard calls lack their one child span: spans were dropped", orphans)
}

// The layers of the budget, outermost first: a span's layer is its depth
// on the blocking path of a step.
const (
	layerClient   = iota // client.*: HTTP round trip outside the handler
	layerService         // service.handle.*: handler, and the steering goroutine it waits on
	layerShardRPC        // engine.shard_call: encode, wire, decode
	layerWorker          // shardrpc.worker_exec: the shard's kernels
	numLayers
)

func layerOf(name string) int {
	switch {
	case name == "shardrpc.worker_exec":
		return layerWorker
	case name == "engine.shard_call":
		return layerShardRPC
	case strings.HasPrefix(name, "service."):
		return layerService
	default:
		return layerClient
	}
}

// layerBudget splits the part of root's duration that the spans below
// it cover among the layers: every instant belongs to the deepest layer
// that has a span of the trace open. When shards answer in parallel
// their spans overlap, and the instant is still counted once — the step
// waited for it once. What no span below the root covers (the client
// between its two operations) belongs to no layer.
func layerBudget(root span, trace []span) [numLayers]time.Duration {
	var atLeast [numLayers][][2]int64 // intervals of spans at depth >= l
	for _, s := range trace {
		lo, hi := max(s.Start, root.Start), min(s.End, root.End)
		if hi <= lo || s.ID == root.ID {
			continue
		}
		for l := 0; l <= layerOf(s.Name); l++ {
			atLeast[l] = append(atLeast[l], [2]int64{lo, hi})
		}
	}
	var out [numLayers]time.Duration
	for l := range out {
		out[l] = time.Duration(unionLen(atLeast[l]))
		if l > 0 {
			out[l-1] -= out[l]
		}
	}
	return out
}

// unionLen is the total length the intervals cover.
func unionLen(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, edge := int64(0), int64(-1<<62)
	for _, iv := range ivs {
		lo, hi := max(iv[0], edge), iv[1]
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// exploreOptions is the configuration service.Server derives from a
// creation request that sets what the benchmark's requests set.
func exploreOptions(req service.CreateSessionRequest) explore.Options {
	opts := explore.DefaultOptions()
	opts.Seed = req.Seed
	opts.SamplesPerIteration = req.SamplesPerIteration
	opts.MaxIterations = req.MaxIterations
	if req.Discovery == "clustering" {
		opts.Discovery = explore.DiscoveryClustering
	}
	return opts
}

// replayMetrics fills the source-R metrics: the sessions again, straight
// through explore with an in-memory oracle, timed by explore itself.
func replayMetrics(m map[string]metric, w workload, view *engine.View, specs []sessionSpec, traced []sessionResult, t *tally) error {
	var dur, train, trainFinal []float64
	var phase [3][]float64
	samples, queries, iters := 0.0, 0.0, 0.0
	for i, spec := range specs {
		oracle := explore.OracleFunc(func(_ *engine.View, row int) bool { return spec.relevant(row) })
		sess, err := explore.NewSession(view, oracle, exploreOptions(spec.Req))
		if err != nil {
			return err
		}
		var last *explore.IterationResult
		for sess.Stats().Iterations < spec.Req.MaxIterations {
			res, err := sess.RunIteration()
			if err != nil {
				return err
			}
			last = res
			dur = append(dur, ms(res.Duration))
			train = append(train, ms(res.TrainDuration))
			for p := range phase {
				phase[p] = append(phase[p], ms(res.PhaseDurations[p]))
			}
		}
		trainFinal = append(trainFinal, ms(last.TrainDuration))
		st := sess.Stats()
		samples += float64(st.TotalLabeled)
		iters += float64(st.Iterations)
		for _, q := range st.PhaseQueries {
			queries += float64(q)
		}
		sql := sess.FinalQuery().SQL()
		t.check(sql == traced[i].SQL, "replayed session %d predicts different SQL than over HTTP", spec.Index)
	}
	n := len(dur)
	m["explore.iter_compute_ms"] = metric{mean(dur), "ms", n}
	m["explore.phase_discovery_ms"] = metric{mean(phase[explore.PhaseDiscovery]), "ms", n}
	m["explore.phase_misclass_ms"] = metric{mean(phase[explore.PhaseMisclass]), "ms", n}
	m["explore.phase_boundary_ms"] = metric{mean(phase[explore.PhaseBoundary]), "ms", n}
	m["explore.samples_per_iter"] = metric{samples / iters, "count", n}
	m["explore.queries_per_iter"] = metric{queries / iters, "count", n}
	m["cart.train_ms_per_iter"] = metric{mean(train), "ms", n}
	m["cart.train_ms_final"] = metric{mean(trainFinal), "ms", len(trainFinal)}
	return nil
}

const (
	directReps   = 200 // timed repetitions of a cheap direct call
	newSessionN  = 5   // sessions whose construction is timed
	batchItems   = 16
	walLabelsPer = 20 // labels appended per timed WAL
)

// directMetrics fills the source-P metrics by calling the layers'
// public functions the way the workload's server does. Layers the
// workload bypasses report 0: that is the prediction for them.
func directMetrics(m map[string]metric, w workload, view *engine.View, specs []sessionSpec, runDir string) error {
	// explore.NewSession as POST /v1/sessions calls it.
	var newSess []float64
	for i := 0; i < min(newSessionN, len(specs)); i++ {
		oracle := explore.OracleFunc(func(*engine.View, int) bool { return false })
		t0 := time.Now()
		if _, err := explore.NewSession(view, oracle, exploreOptions(specs[i].Req)); err != nil {
			return err
		}
		newSess = append(newSess, ms(time.Since(t0)))
	}
	m["explore.new_session_ms"] = metric{median(newSess), "ms", len(newSess)}

	// What clustering discovery does inside NewSession: one SampleAll
	// draw, then one k-means fit per level of explore's default hierarchy
	// (beta0^d clusters, 2^d times more per level, capped at draw/8).
	var sampleAll, cluster []float64
	if w.Discovery == "clustering" {
		opts := explore.DefaultOptions()
		for i := 0; i < newSessionN; i++ {
			rng := rand.New(rand.NewSource(specs[i%len(specs)].Req.Seed))
			t0 := time.Now()
			rows := view.SampleAll(opts.ClusterSampleSize, rng)
			sampleAll = append(sampleAll, ms(time.Since(t0)))
			points := make([]geom.Point, len(rows))
			for j, row := range rows {
				points[j] = view.NormPoint(row)
			}
			d, k, maxK := view.Dims(), 1, len(points)/8
			for j := 0; j < d; j++ {
				k *= opts.Beta0
			}
			t0 = time.Now()
			for l := 0; l <= opts.MaxZoomLevels; l++ {
				kl := min(k<<(uint(l)*uint(d)), maxK)
				if _, err := kmeans.Cluster(points, kmeans.Params{K: kl, MaxIters: 20}, rng); err != nil {
					return err
				}
				if kl == maxK {
					break
				}
			}
			cluster = append(cluster, ms(time.Since(t0)))
		}
	}
	m["engine.sample_all_ms"] = metric{median(sampleAll), "ms", len(sampleAll)}
	m["kmeans.cluster_ms"] = metric{median(cluster), "ms", len(cluster)}

	// A fixed mixed batch cut from the sessions' targets — each area as a
	// sample, a count and its boundary slabs, as one exploitation
	// iteration asks — on the workload's view, uncached.
	norm := view.Normalizer()
	full := geom.NewRect(view.Dims())
	var batch []engine.BatchQuery
	for _, spec := range specs {
		for _, area := range spec.Target {
			raw := norm.ToRawRect(full)
			for d := range area {
				raw[d] = geom.Interval{Lo: area[d].Lo, Hi: area[d].Hi}
			}
			r := norm.ToNormRect(raw)
			batch = append(batch, engine.BatchQuery{Kind: engine.BatchSample, Rect: r, N: 10},
				engine.BatchQuery{Kind: engine.BatchCount, Rect: r})
			for d := range area {
				batch = append(batch,
					engine.BatchQuery{Kind: engine.BatchSample, Rect: r.FaceSlab(d, false, 1, full, true), N: 5},
					engine.BatchQuery{Kind: engine.BatchSample, Rect: r.FaceSlab(d, true, 1, full, true), N: 5})
			}
		}
	}
	for i := 0; len(batch) < batchItems; i++ { // few small targets: repeat them
		batch = append(batch, batch[i])
	}
	batch = batch[:batchItems]
	uncached := view.WithCache(nil)
	var exec []float64
	for i := 0; i < directReps; i++ {
		t0 := time.Now()
		uncached.ExecuteBatch(batch)
		exec = append(exec, us(time.Since(t0)))
	}
	m["engine.exec_batch16_us"] = metric{median(exec), "us", len(exec)}

	// The WAL under the workload's fsync policy.
	var create, appendL, remove, bytesPer []float64
	if w.Durable {
		mgr, err := durable.NewManager(filepath.Join(runDir, "pwal"), durable.Options{Fsync: durable.FsyncAlways})
		if err != nil {
			return err
		}
		defer mgr.Close()
		payload := []byte(`{"view":"sdss","seed":1,"samples_per_iteration":20,"max_iterations":8,"view_fingerprint":"0123456789abcdef"}`)
		for i := 0; i < directReps/walLabelsPer; i++ {
			id := fmt.Sprintf("p%d", i)
			t0 := time.Now()
			log, err := mgr.Create(id, payload)
			if err != nil {
				return err
			}
			create = append(create, us(time.Since(t0)))
			size := log.Size()
			for j := 0; j < walLabelsPer; j++ {
				t0 = time.Now()
				if err := log.AppendLabel(int64(j), j%2 == 0); err != nil {
					return err
				}
				appendL = append(appendL, us(time.Since(t0)))
			}
			bytesPer = append(bytesPer, float64(log.Size()-size)/walLabelsPer)
			t0 = time.Now()
			if err := mgr.Remove(id); err != nil {
				return err
			}
			remove = append(remove, us(time.Since(t0)))
		}
	}
	m["durable.create_us"] = metric{median(create), "us", len(create)}
	m["durable.append_us"] = metric{median(appendL), "us", len(appendL)}
	m["durable.remove_us"] = metric{median(remove), "us", len(remove)}
	m["durable.wal_bytes_per_label"] = metric{median(bytesPer), "B", len(bytesPer)}
	return nil
}
