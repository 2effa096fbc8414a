// Command aidebench regenerates the tables and figures of the paper's
// evaluation (Section 6). Each experiment id names a paper artifact:
//
//	aidebench -list
//	aidebench -run fig8a
//	aidebench -run all -rows 100000 -sessions 10
//	aidebench -run fig8d,fig8e -quick
//
// Absolute numbers depend on machine and scale; the shapes (orderings,
// rough factors, crossovers) reproduce the paper. See EXPERIMENTS.md.
//
// The -json flag instead runs the hot-path benchmark (grid scans and
// index build at workers=1 vs N; CART training and k-means, which run
// sequentially, on both sides) and writes the machine-readable report
// tracked as BENCH_hotpaths.json:
//
//	aidebench -json BENCH_hotpaths.json
//	aidebench -json - -workers 8 -quick
//
// Benchmarks run under GOMAXPROCS = runtime.NumCPU() by default (override
// with -gomaxprocs); when GOMAXPROCS < workers the report carries a
// warning field, because time-sliced "parallel" timings say nothing
// about multicore scaling — and -json exits nonzero after writing the
// report, so a CI-regenerated BENCH_hotpaths.json can never quietly
// carry a warning. It also exits nonzero, naming them, when any kernel's
// row reads identical: false. The -baseline flag turns aidebench into a regression
// gate: it reruns the hot-path suite at a committed BENCH_hotpaths.json's
// scale and exits nonzero when grid_scan, grid_scan_batched or sample_plan
// single-thread ns/op regresses more than 20%, one batch of 16 probes
// loses to 16 batches of one, or any kernel loses its bit-identity gate:
//
//	aidebench -baseline BENCH_hotpaths.json
//
// The -trace flag replays an exploration flight-recorder journal (the
// <id>.events.jsonl the server keeps next to each WAL, or a saved
// /v1/sessions/{id}/events stream) into a per-phase latency and
// convergence report, offline:
//
//	aidebench -trace data/abc123.events.jsonl
//	aidebench -trace session.jsonl -trace-json report.json
//
// The -throughput flag runs the multi-session compute-reuse benchmark
// (N concurrent sessions over one registry-shared, cache-backed view vs
// per-session private views), writes the report tracked as
// BENCH_throughput.json, and exits nonzero when cached results are not
// bit-identical to uncached ones or the shared cache never hits:
//
//	aidebench -throughput BENCH_throughput.json
//	aidebench -throughput - -sessions 4 -quick
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/explore-by-example/aide/internal/bench"
	"github.com/explore-by-example/aide/internal/obs"
)

func main() {
	var (
		run      = flag.String("run", "", "experiment id(s), comma separated, or 'all'")
		list     = flag.Bool("list", false, "list experiments and exit")
		rows     = flag.Int("rows", 0, "dataset rows standing in for 10GB (default 100000; fig9 scales to 10x)")
		sessions = flag.Int("sessions", 0, "sessions averaged per data point (default 10)")
		maxIter  = flag.Int("maxiter", 0, "max iterations per session (default 250)")
		seed     = flag.Int64("seed", 0, "base random seed")
		quick    = flag.Bool("quick", false, "reduced scale for a fast pass")
		verbose  = flag.Bool("v", false, "stream per-session progress")
		csvDir   = flag.String("csvdir", "", "also write each report as <id>.csv into this directory")
		metrics  = flag.String("metrics", "", "after all runs, dump internal counters as JSON to this file ('-' for stdout)")
		jsonOut  = flag.String("json", "", "run the hot-path benchmark and write its JSON report to this file ('-' for stdout)")
		workers  = flag.Int("workers", 0, "worker count for the -json benchmark's parallel side (0: GOMAXPROCS)")
		procs    = flag.Int("gomaxprocs", 0, "GOMAXPROCS while benchmarking (0: runtime.NumCPU(); honest speedups need gomaxprocs >= workers)")
		baseline = flag.String("baseline", "", "regression-gate mode: rerun the hot-path suite at this committed BENCH_hotpaths.json's scale and exit nonzero if grid_scan, grid_scan_batched or sample_plan single-thread ns/op regresses >20%, one batch of 16 loses to 16 batches of one, or any identical gate fails")

		tracePath = flag.String("trace", "", "replay a flight-recorder JSONL journal into a per-phase latency/convergence report")
		traceJSON = flag.String("trace-json", "", "also write the -trace report as JSON to this file ('-' for stdout)")

		throughputOut = flag.String("throughput", "", "run the multi-session compute-reuse benchmark (shared view registry + predicate cache vs per-session views) and write its JSON report to this file ('-' for stdout); exits nonzero when the bit-identity or cache-hit gate fails")
		cacheBytes    = flag.Int64("cache-bytes", 0, "shared cache budget for -throughput (default 32 MiB)")
		iters         = flag.Int("iters", 0, "steering iterations per session for -throughput (default 8)")
	)
	flag.Parse()

	// Benchmarks historically inherited whatever GOMAXPROCS the harness
	// set — BENCH_hotpaths.json once recorded gomaxprocs=1 with
	// workers=4, making every "speedup" a single-core artifact. Default
	// to all CPUs so parallel timings mean what they claim.
	n := *procs
	if n <= 0 {
		n = runtime.NumCPU()
	}
	runtime.GOMAXPROCS(n)

	if *baseline != "" {
		if err := runBaselineGate(*baseline, *workers, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "aidebench: %v\n", err)
			os.Exit(1)
		}
		if *run == "" && *jsonOut == "" && *throughputOut == "" && *tracePath == "" {
			return
		}
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if *tracePath != "" {
		if err := runTrace(*tracePath, *traceJSON); err != nil {
			fmt.Fprintf(os.Stderr, "aidebench: %v\n", err)
			os.Exit(1)
		}
		if *run == "" && *jsonOut == "" && *throughputOut == "" {
			return
		}
	}
	if *jsonOut != "" {
		if err := runHotpaths(*jsonOut, *workers, *rows, *seed, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "aidebench: %v\n", err)
			os.Exit(1)
		}
		if *run == "" && *throughputOut == "" {
			return
		}
	}
	if *throughputOut != "" {
		if err := runThroughput(*throughputOut, *sessions, *rows, *iters, *seed, *cacheBytes, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "aidebench: %v\n", err)
			os.Exit(1)
		}
		if *run == "" {
			return
		}
	}
	if *run == "" {
		fmt.Fprintln(os.Stderr, "usage: aidebench -run <id>[,<id>...] | -run all | -json <path> | -throughput <path> | -trace <journal> | -list")
		os.Exit(2)
	}

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	if *rows > 0 {
		cfg.Rows = *rows
	}
	if *sessions > 0 {
		cfg.Sessions = *sessions
	}
	if *maxIter > 0 {
		cfg.MaxIter = *maxIter
	}
	cfg.Seed = *seed
	cfg.Verbose = *verbose
	cfg.Out = os.Stderr

	var ids []string
	if *run == "all" {
		for _, e := range bench.All() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*run, ",")
	}

	for _, id := range ids {
		id = strings.TrimSpace(id)
		rep, err := bench.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aidebench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(rep.String())
		if *csvDir != "" {
			if err := writeCSV(*csvDir, rep); err != nil {
				fmt.Fprintf(os.Stderr, "aidebench: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if *metrics != "" {
		if err := dumpMetrics(*metrics); err != nil {
			fmt.Fprintf(os.Stderr, "aidebench: %v\n", err)
			os.Exit(1)
		}
	}
}

// runHotpaths benchmarks the hot paths, each as a pair of sides,
// and writes the JSON perf-trajectory report (see BENCH_hotpaths.json).
func runHotpaths(path string, workers, rows int, seed int64, quick bool) error {
	cfg := bench.DefaultHotpathConfig()
	cfg.Workers = workers
	cfg.Seed = seed
	if quick {
		cfg.Rows, cfg.TrainPoints, cfg.ClusterPoints = 30_000, 1_500, 8_000
		cfg.MinTime = 50 * time.Millisecond
	}
	if rows > 0 {
		cfg.Rows = rows
	}
	rep, err := bench.RunHotpaths(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(os.Stderr, rep.String())
	if path == "-" {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return reportErr(rep)
}

// reportErr is why a written hot-path report is not accepted, nil when
// it is. A kernel whose two sides disagreed is a determinism break. A
// warned report's speedups are time-slicing artifacts, and exiting
// nonzero keeps CI from committing them as BENCH_hotpaths.json.
func reportErr(rep *bench.HotpathReport) error {
	var warn error
	if rep.Warning != "" {
		warn = fmt.Errorf("report carries a warning: %s", rep.Warning)
	}
	return errors.Join(lostIdentity(rep), warn)
}

// lostIdentity names every kernel whose report row reads identical:
// false, nil when there is none.
func lostIdentity(rep *bench.HotpathReport) error {
	var lost []string
	for _, r := range rep.Results {
		if !r.Identical {
			lost = append(lost, r.Name)
		}
	}
	if len(lost) == 0 {
		return nil
	}
	return fmt.Errorf("kernels lost bit-identity (identical: false): %s", strings.Join(lost, ", "))
}

// maxGridScanRegress is the gate threshold: a fresh grid_scan (or
// grid_scan_batched, or sample_plan) single-thread ns/op more than 20%
// above the committed baseline fails.
const maxGridScanRegress = 1.20

// minBatchedSpeedup is the floor the batched execution path must hold:
// a 16-probe Count/RowsIn ExecuteBatch no slower, single-thread, than
// the same probes as 16 batches of one — the per-rect loop Count and
// RowsIn are. Both sides run the same kernels, so the ratio measures
// only what batching shares (1.26–2.49x over ten runs on a 2-core
// host); the 20% tripwire on the batch column is what guards the
// batched path's speed, and this floor that batching never costs.
const minBatchedSpeedup = 1.0

// runBaselineGate reruns the hot-path suite at the committed baseline's
// scale and fails when grid_scan's, grid_scan_batched's or sample_plan's
// single-thread ns/op regresses beyond the threshold, the batched
// speedup drops below its floor, or any kernel loses bit-identity. Absolute ns/op
// comparisons across different machines are inherently noisy; the 20%
// margin plus the committed baseline being refreshed on the same class
// of hardware keeps the gate a tripwire for real regressions rather
// than scheduler jitter.
func runBaselineGate(path string, workers int, seed int64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base bench.HotpathReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	cfg := bench.DefaultHotpathConfig()
	cfg.Workers = workers
	cfg.Seed = seed
	// Compare at the baseline's recorded scale, whatever the current
	// defaults are — ns/op is only meaningful against the same workload.
	if base.Rows > 0 {
		cfg.Rows = base.Rows
	}
	if base.TrainPoints > 0 {
		cfg.TrainPoints = base.TrainPoints
	}
	if base.ClusterPoints > 0 {
		cfg.ClusterPoints = base.ClusterPoints
	}
	rep, err := bench.RunHotpaths(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(os.Stderr, rep.String())
	if err := lostIdentity(rep); err != nil {
		return fmt.Errorf("gate: %w", err)
	}
	find := func(rep *bench.HotpathReport, name string) *bench.HotpathResult {
		for i := range rep.Results {
			if rep.Results[i].Name == name {
				return &rep.Results[i]
			}
		}
		return nil
	}
	// Regression-gated kernels. grid_scan pins the unsharded scan via its
	// workers_1 column; grid_scan_batched pins the batched one-pass
	// execution, which lives in its workers_n column (workers_1 there is
	// the per-rect loop of batches of one); sample_plan pins the batch's
	// sample planning and draw, uncached, in workers_1.
	type gated struct {
		name  string
		nsOf  func(*bench.HotpathResult) int64
		label string
	}
	for _, gk := range []gated{
		{"grid_scan", func(r *bench.HotpathResult) int64 { return r.NsPerOpWorkers1 }, "w=1"},
		{"grid_scan_batched", func(r *bench.HotpathResult) int64 { return r.NsPerOpWorkersN }, "batch"},
		{"sample_plan", func(r *bench.HotpathResult) int64 { return r.NsPerOpWorkers1 }, "cold"},
	} {
		want, got := find(&base, gk.name), find(rep, gk.name)
		if want == nil {
			// A freshly added kernel missing from an older committed
			// baseline is not a regression; it gets gated once the
			// baseline is regenerated.
			if gk.name != "grid_scan" {
				fmt.Fprintf(os.Stderr, "gate: baseline %s has no %s result, skipping\n", path, gk.name)
				continue
			}
			return fmt.Errorf("gate: baseline %s has no %s result", path, gk.name)
		}
		if got == nil {
			return fmt.Errorf("gate: fresh run produced no %s result", gk.name)
		}
		ratio := float64(gk.nsOf(got)) / float64(gk.nsOf(want))
		if ratio > maxGridScanRegress {
			return fmt.Errorf("gate: %s %s regressed %.2fx vs baseline (%d ns/op vs %d ns/op, threshold %.2fx)",
				gk.name, gk.label, ratio, gk.nsOf(got), gk.nsOf(want), maxGridScanRegress)
		}
		fmt.Fprintf(os.Stderr, "gate: %s %s %d ns/op vs baseline %d ns/op (%.2fx, threshold %.2fx): ok\n",
			gk.name, gk.label, gk.nsOf(got), gk.nsOf(want), ratio, maxGridScanRegress)
	}
	if batched := find(rep, "grid_scan_batched"); batched != nil {
		if batched.Speedup < minBatchedSpeedup {
			return fmt.Errorf("gate: grid_scan_batched speedup %.2fx below the %.1fx batched-execution floor (batch %d ns/op vs loop of batches of one %d ns/op)",
				batched.Speedup, minBatchedSpeedup, batched.NsPerOpWorkersN, batched.NsPerOpWorkers1)
		}
		fmt.Fprintf(os.Stderr, "gate: grid_scan_batched speedup %.2fx (floor %.1fx): ok\n",
			batched.Speedup, minBatchedSpeedup)
	}
	return nil
}

// runTrace replays a flight-recorder journal into a per-phase
// latency/convergence report, printed human-readable and optionally
// written as JSON.
func runTrace(journal, jsonPath string) error {
	f, err := os.Open(journal)
	if err != nil {
		return err
	}
	events, err := obs.ReadJournal(f)
	f.Close()
	if err != nil {
		return err
	}
	rep, err := bench.ReplayTrace(events)
	if err != nil {
		return err
	}
	fmt.Print(rep.String())
	if jsonPath == "" {
		return nil
	}
	if jsonPath == "-" {
		return rep.WriteJSON(os.Stdout)
	}
	out, err := os.Create(jsonPath)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// runThroughput measures N concurrent sessions over a registry-shared
// cached view against per-session views, writes the JSON report (see
// BENCH_throughput.json), and fails when the bit-identity or cache-hit
// gate trips.
func runThroughput(path string, sessions, rows, iters int, seed, cacheBytes int64, quick bool) error {
	cfg := bench.DefaultThroughputConfig()
	if quick {
		cfg.Rows, cfg.Iterations = 40_000, 8
	}
	if sessions > 0 {
		cfg.Sessions = sessions
	}
	if rows > 0 {
		cfg.Rows = rows
	}
	if iters > 0 {
		cfg.Iterations = iters
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	if cacheBytes > 0 {
		cfg.CacheBytes = cacheBytes
	}
	rep, err := bench.RunThroughput(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(os.Stderr, rep.String())
	if path == "-" {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return rep.Gate()
}

// dumpMetrics writes the cumulative internal counters (engine work,
// steering-loop effort, timing histograms) accumulated over every run,
// so BENCH_*.json trajectories can be correlated with where the engine
// actually spent its effort.
func dumpMetrics(path string) error {
	if path == "-" {
		return obs.Default.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.Default.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCSV dumps one report into dir/<id>.csv.
func writeCSV(dir string, rep *bench.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, rep.ID+".csv"))
	if err != nil {
		return err
	}
	if err := rep.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
