package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/service"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind the value, where it is a statistic
}

// env is what every run of this process shares.
type env struct {
	root   string // checkout root
	binDir string // built aideserver / aideshard
}

func (e env) runDir(w workload) string {
	return filepath.Join(e.root, ".bench_build", "run-"+w.Name)
}

// interval is what happened between two probes of a run.
type interval struct {
	Seconds    float64
	Iterations float64 // explore.iterations delta of the server
	CPUMillis  float64 // server + workers
}

// spawnedResult is a run against the spawned processes.
type spawnedResult struct {
	Setups    []time.Duration
	Drive     driveResult
	Intervals []interval
	Counts    map[string]float64 // /v1/metrics deltas over the timed sessions; histograms as <name>.count and <name>.sum
	Server    procUsage          // CPU over the timed sessions, peak RSS at their end
	Workers   procUsage
}

// probeSample is one reading of the server's counters and the processes'
// accounting.
type probeSample struct {
	at              time.Time
	metrics         map[string]any
	server, workers procUsage
}

// runSpawned sets the workload's topology up setups times, drives the
// sessions against the last one and tears it down. The first and the last
// probe bracket exactly the timed sessions.
func runSpawned(ctx context.Context, e env, w workload, tab *dataset.Table, seed int64,
	budget time.Duration, maxSessions, setups, abandon int) (res spawnedResult, err error) {
	var topo *topology
	for i := 0; i < setups; i++ {
		var setup time.Duration
		topo, setup, err = startTopology(ctx, e.binDir, e.runDir(w), w, w.datasetSeed(seed))
		if err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		res.Setups = append(res.Setups, setup)
		if i < setups-1 {
			if err := topo.stop(); err != nil {
				return res, fmt.Errorf("tear-down: %w", err)
			}
		}
	}
	defer func() {
		if serr := topo.stop(); serr != nil {
			err = errors.Join(err, fmt.Errorf("tear-down: %w", serr))
		}
	}()

	admin := newClient(topo.base)
	var probes []probeSample
	res.Drive, err = drive(ctx, topo.base, w, tab, seed, budget, maxSessions, abandon, func() error {
		p := probeSample{at: time.Now()}
		var err error
		if p.metrics, err = admin.Metrics(ctx); err != nil {
			return err
		}
		p.server, p.workers, err = topo.usage()
		probes = append(probes, p)
		return err
	})
	if err != nil {
		return res, err
	}
	first, last := probes[0], probes[len(probes)-1]
	res.Counts = countDeltas(first.metrics, last.metrics)
	res.Server, res.Workers = last.server, last.workers
	res.Server.cpuMillis -= first.server.cpuMillis
	res.Workers.cpuMillis -= first.workers.cpuMillis
	for k := 1; k < len(probes); k++ {
		a, b := probes[k-1], probes[k]
		res.Intervals = append(res.Intervals, interval{
			Seconds:    b.at.Sub(a.at).Seconds(),
			Iterations: countDeltas(a.metrics, b.metrics)["explore.iterations"],
			CPUMillis:  b.server.cpuMillis + b.workers.cpuMillis - a.server.cpuMillis - a.workers.cpuMillis,
		})
	}
	sort.Slice(res.Drive.Sessions, func(i, j int) bool { return res.Drive.Sessions[i].Index < res.Drive.Sessions[j].Index })
	return res, nil
}

// countDeltas subtracts two /v1/metrics snapshots: counters and gauges by
// name, histograms as <name>.count and <name>.sum.
func countDeltas(before, after map[string]any) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		switch a := v.(type) {
		case float64:
			b, _ := before[k].(float64)
			out[k] = a - b
		case map[string]any:
			b, _ := before[k].(map[string]any)
			for _, f := range []string{"count", "sum"} {
				av, _ := a[f].(float64)
				bv, _ := b[f].(float64)
				out[k+"."+f] = av - bv
			}
		}
	}
	return out
}

// tally is the contract's attempted/failed pair plus the messages of
// what failed.
type tally struct {
	Attempted, Failed int
	Problems          []string
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.Attempted++
	if !ok {
		t.fail(format, args...)
	}
}

func (t *tally) fail(format string, args ...any) {
	t.Failed++
	if len(t.Problems) < 20 {
		t.Problems = append(t.Problems, fmt.Sprintf(format, args...))
	}
}

// countSessions folds the sessions' HTTP operations into the tally: a
// session that stopped on a failed operation or check counts one failure.
func (t *tally) countSessions(sessions []sessionResult) {
	for _, s := range sessions {
		t.Attempted += s.Ops
		if s.Err != nil {
			t.fail("%v", s.Err)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd computes the end-to-end metrics of an untraced run. Whatever
// else runs on the host only ever slows the system down, in bursts that
// last about a second, so every timing is taken per session (rates per
// interval between probes) and reported as the quartile on the fast
// side: it stays put while less than three quarters of the run was
// disturbed, where a median over the run moves with every burst.
//
// whole holds the same quantities over the whole run — median session,
// percentiles of the pooled steps, totals — which see a slowdown of any
// share of the sessions but move with the host too much for a bound:
// they are printed, recorded and compared, never gated on.
func endToEnd(r spawnedResult) (metrics, whole map[string]metric, err error) {
	var p50s, p99s, firsts, iterWaits, setups, rates, cpus, steps []float64
	var total interval
	for _, s := range r.Drive.Sessions {
		if s.Err != nil {
			continue
		}
		mine := make([]float64, len(s.Steps))
		for i, d := range s.Steps {
			mine[i] = ms(d)
		}
		steps = append(steps, mine...)
		p50s = append(p50s, median(mine))
		p99s = append(p99s, percentile(mine, 99))
		firsts = append(firsts, ms(s.FirstSample))
		iterWaits = append(iterWaits, sum(mine)/float64(s.Iterations))
	}
	for _, d := range r.Drive.Abandoned {
		firsts = append(firsts, ms(d))
	}
	for _, d := range r.Setups {
		setups = append(setups, d.Seconds())
	}
	for _, iv := range r.Intervals {
		total.Seconds += iv.Seconds
		total.Iterations += iv.Iterations
		total.CPUMillis += iv.CPUMillis
		if iv.Iterations > 0 {
			rates = append(rates, iv.Iterations/iv.Seconds)
			cpus = append(cpus, iv.CPUMillis/iv.Iterations)
		}
	}
	if len(iterWaits) == 0 || len(rates) == 0 {
		return nil, nil, errors.New("no session completed")
	}
	const fast, fastRate = 25, 75 // the quartile on the fast side: low for a time, high for a rate
	sessions := len(iterWaits)
	metrics = map[string]metric{
		"setup_s":                {median(setups), "s", len(setups)},
		"iter_wait_ms":           {percentile(iterWaits, fast), "ms", sessions},
		"step_p50_ms":            {percentile(p50s, fast), "ms", sessions},
		"step_p99_ms":            {percentile(p99s, fast), "ms", sessions},
		"first_sample_ms":        {percentile(firsts, fast), "ms", len(firsts)},
		"iters_per_s":            {percentile(rates, fastRate), "1/s", len(rates)},
		"server_cpu_ms_per_iter": {percentile(cpus, fast), "ms", len(cpus)},
		"peak_rss_mb":            {r.Server.peakRSSMB + r.Workers.peakRSSMB, "MB", 0},
	}
	whole = map[string]metric{
		"whole.iter_wait_ms":           {median(iterWaits), "ms", sessions},
		"whole.step_p50_ms":            {median(steps), "ms", len(steps)},
		"whole.step_p99_ms":            {percentile(steps, 99), "ms", len(steps)},
		"whole.first_sample_ms":        {median(firsts), "ms", len(firsts)},
		"whole.iters_per_s":            {total.Iterations / total.Seconds, "1/s", int(total.Iterations)},
		"whole.server_cpu_ms_per_iter": {total.CPUMillis / total.Iterations, "ms", int(total.Iterations)},
	}
	return metrics, whole, nil
}

// serveHTTP serves handler on a loopback port until stop is called.
func serveHTTP(handler http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln) // returns ErrServerClosed after Close
	return "http://" + ln.Addr().String(), func() { srv.Close() }, nil
}

// gateSessions is how many leading sessions the correctness gate re-runs.
const gateSessions = 2

// gate re-runs the first sessions of the run — same creation request,
// same simulated user — against a reference assembled in this process:
// service.NewServer over a plain engine.NewView of the regenerated
// table, unsharded, uncached, without WAL. The system under test must
// have predicted byte-identical SQL, whatever its topology.
func gate(ctx context.Context, w workload, tab *dataset.Table, seed int64, sessions []sessionResult, t *tally) error {
	view, err := engine.NewView(tab, w.Attrs)
	if err != nil {
		return err
	}
	base, stop, err := serveHTTP(service.NewServer(map[string]*engine.View{"sdss": view}))
	if err != nil {
		return err
	}
	defer stop()
	client := newClient(base)
	for _, got := range sessions {
		if got.Index >= gateSessions || got.Err != nil {
			continue
		}
		spec, err := w.session(tab, seed, got.Index)
		if err != nil {
			return err
		}
		want := runSession(ctx, client, tab, spec, nil)
		if want.Err != nil {
			return fmt.Errorf("reference run: %w", want.Err)
		}
		t.check(got.SQL == want.SQL, "session %d: predicted SQL differs from the reference server's:\n  got  %s\n  want %s",
			got.Index, got.SQL, want.SQL)
	}
	return ctx.Err()
}

// sqlDigest identifies a session's predicted SQL: local-3m and remote-3m
// run the same sessions and must agree on each.
func sqlDigest(sql string) string {
	sum := sha256.Sum256([]byte(sql))
	return hex.EncodeToString(sum[:8])
}

// sumPrefix adds up the count deltas whose name starts with prefix,
// except those ending in one of the given suffixes.
func sumPrefix(counts map[string]float64, prefix string, except ...string) float64 {
	total := 0.0
next:
	for k, v := range counts {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		for _, x := range except {
			if strings.HasSuffix(k, x) {
				continue next
			}
		}
		total += v
	}
	return total
}
