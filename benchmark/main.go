// Command benchmark is the repository's benchmark: it measures how long a
// user of the deployed system — aideserver over HTTP, optionally with
// aideshard workers behind it — waits for a steering iteration, on five
// workloads, and decomposes that wait into a per-layer budget from
// outside the layers. README.md in this directory is the manual.
//
//	go run -C benchmark . --workload remote-3m --seed 1 --seconds 10 --trace 0
//	go run -C benchmark . -workload all -seed 1 -out result.jsonl
//	go run -C benchmark . -compare a.jsonl b.jsonl
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/explore-by-example/aide/internal/dataset"
)

// spec mirrors BENCHMARK.json, the declaration this program is held to.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specName   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specName struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(root string) (spec, error) {
	var s spec
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// host is the hardware accounting every record carries: a time taken on
// two cores is not a time taken on sixteen.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostInfo(root string) host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// record is one run of one workload, as written to -out.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Seconds   int               `json:"seconds"`
	Clients   int               `json:"clients"`
	Host      host              `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Whole holds an untraced run's whole-run statistics (see endToEnd):
	// reported beside the declared metrics, outside the contract line.
	Whole map[string]metric `json:"whole,omitempty"`
	// SQL is each session's predicted SQL digest by session index; runs of
	// one family and seed must agree wherever both ran the session.
	SQL map[int]string `json:"sql,omitempty"`
}

// noCap is runWorkload's maxSessions when only --seconds ends the run.
const noCap = 1 << 30

// runWorkload measures one workload once, untraced or traced. An untraced
// run starts sessions for `seconds`, at most maxSessions of them.
func runWorkload(ctx context.Context, e env, declared spec, w workload, seed int64, trace, seconds, maxSessions int) (record, error) {
	rec := record{Workload: w.Name, Seed: seed, Trace: trace, Seconds: seconds, Clients: w.Clients, Host: hostInfo(e.root)}
	if w.Clients > runtime.NumCPU() {
		return rec, fmt.Errorf("workload %s drives %d closed-loop clients but this machine has %d CPUs: the figures would be time-sliced, refusing to produce them",
			w.Name, w.Clients, runtime.NumCPU())
	}
	var t tally
	var want []specMetric
	var err error
	if trace == 1 {
		want = declared.PerLayer
		rec.Metrics, err = runTraced(ctx, e, w, seed, &t)
	} else {
		want = declared.EndToEnd
		tab := dataset.GenerateSDSS(w.Rows, w.datasetSeed(seed))
		var sp spawnedResult
		sp, err = runSpawned(ctx, e, w, tab, seed, time.Duration(seconds)*time.Second, maxSessions, w.Setups, w.Abandon)
		if err == nil {
			t.countSessions(sp.Drive.Sessions)
			t.Attempted += abandonedOps * len(sp.Drive.Abandoned)
			rec.SQL = make(map[int]string)
			for _, s := range sp.Drive.Sessions {
				rec.SQL[s.Index] = sqlDigest(s.SQL)
			}
			err = gate(ctx, w, tab, seed, sp.Drive.Sessions, &t)
		}
		if err == nil {
			rec.Metrics, rec.Whole, err = endToEnd(sp)
		}
	}
	rec.Attempted, rec.Failed, rec.Problems = t.Attempted, t.Failed, t.Problems
	if err != nil {
		return rec, err
	}
	// The declaration and the program must name the same metrics.
	for _, d := range want {
		got, ok := rec.Metrics[d.Name]
		if !ok || got.Unit != d.Unit {
			return rec, fmt.Errorf("BENCHMARK.json declares %s in %s; the run produced %+v", d.Name, d.Unit, got)
		}
	}
	if len(rec.Metrics) != len(want) {
		return rec, fmt.Errorf("the run produced %d metrics, BENCHMARK.json declares %d", len(rec.Metrics), len(want))
	}
	rec.Correct = t.Failed == 0 && t.Attempted > 0
	return rec, nil
}

func (r record) print() {
	fmt.Printf("# %s seed=%d trace=%d clients=%d nproc=%d gomaxprocs=%d %s commit=%s\n",
		r.Workload, r.Seed, r.Trace, r.Clients, r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.Commit)
	for _, set := range []map[string]metric{r.Metrics, r.Whole} {
		names := make([]string, 0, len(set))
		for k := range set {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			m := set[k]
			fmt.Printf("%-36s %14.4f %-6s n=%d\n", k, m.Value, m.Unit, m.N)
		}
	}
	for _, p := range r.Problems {
		fmt.Printf("FAILED: %s\n", p)
	}
}

// contractLine is the last line of standard output: the result as the
// benchmark contract reads it.
func (r record) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]mv, len(r.Metrics))}
	for k, m := range r.Metrics {
		out.Metrics[k] = mv{m.Value, m.Unit}
	}
	b, _ := json.Marshal(out) // plain numbers and strings: cannot fail
	return string(b)
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run, or \"all\" (each untraced, then traced, plus the cross-workload checks)")
		seed         = flag.Int64("seed", 1, "workload seed: dataset, session seeds and hidden targets derive from it")
		seconds      = flag.Int("seconds", 0, "untraced run: start new sessions for this long (0: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		out          = flag.String("out", "", "append each run's record to this JSONL file")
		compare      = flag.Bool("compare", false, "compare two -out files given as arguments under BENCHMARK.json's bounds instead of running")
	)
	flag.Parse()
	if err := realMain(*workloadName, *seed, *seconds, *trace, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(workloadName string, seed int64, seconds, trace int, out string, compare bool, args []string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	declared, err := readSpec(root)
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return errors.New("-compare wants two result files")
		}
		return compareFiles(declared, args[0], args[1])
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	if seconds <= 0 {
		seconds = declared.RunSeconds
	}
	var todo []workload
	if workloadName == "all" {
		todo = workloads
	} else {
		w, err := workloadByName(workloadName)
		if err != nil {
			return err
		}
		todo = []workload{w}
	}

	// SIGINT/SIGTERM cancel the run; every spawn site tears its children
	// down on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	e := env{root: root}
	if e.binDir, err = buildBinaries(ctx, root); err != nil {
		return err
	}

	var records []record
	traces := []int{trace}
	if workloadName == "all" {
		traces = []int{0, 1}
	}
	for _, w := range todo {
		for _, tr := range traces {
			rec, err := runWorkload(ctx, e, declared, w, seed, tr, seconds, noCap)
			if err != nil {
				for _, p := range rec.Problems {
					fmt.Fprintln(os.Stderr, "FAILED:", p)
				}
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			records = append(records, rec)
			rec.print()
			if out != "" {
				if err := appendRecord(out, rec); err != nil {
					return err
				}
			}
		}
	}
	ok := true
	for _, r := range records {
		ok = ok && r.Correct
	}
	if workloadName == "all" {
		ok = crossChecks(records) && ok
	} else {
		fmt.Println(records[0].contractLine())
	}
	if !ok {
		return errors.New("a correctness check failed")
	}
	return nil
}

// crossChecks runs the checks that need more than one workload. The SQL
// agreement of the 3m family gates; the sizing relations are printed as
// sanity checks only — they describe this sandbox, not a contract.
func crossChecks(records []record) bool {
	e2e := make(map[string]record)
	for _, r := range records {
		if r.Trace == 0 {
			e2e[r.Workload] = r
		}
	}
	ok := true
	local, remote := e2e["local-3m"], e2e["remote-3m"]
	common := 0
	for i, d := range local.SQL {
		if rd, ran := remote.SQL[i]; ran {
			common++
			if rd != d {
				ok = false
				fmt.Printf("FAILED: session %d predicts different SQL on remote-3m than on local-3m\n", i)
			}
		}
	}
	fmt.Printf("check: remote-3m and local-3m predict identical SQL on the %d sessions both ran: %v\n", common, ok)
	v := func(w, m string) float64 { return e2e[w].Metrics[m].Value }
	sanity := func(holds bool, format string, args ...any) {
		fmt.Printf("sanity (%v): %s\n", holds, fmt.Sprintf(format, args...))
	}
	r := v("floor-150k", "iter_wait_ms") / v("floor-150k", "step_p50_ms")
	sanity(r > 15 && r < 30, "floor-150k iter_wait_ms is %.1f x step_p50_ms (about 20: one step per sample)", r)
	sanity(v("remote-3m", "iter_wait_ms") > v("local-3m", "iter_wait_ms"), "remote-3m iter_wait_ms %.2f > local-3m %.2f: the price of distribution",
		v("remote-3m", "iter_wait_ms"), v("local-3m", "iter_wait_ms"))
	sanity(v("durable-churn", "step_p50_ms") > v("floor-150k", "step_p50_ms"), "durable-churn step_p50_ms %.3f > floor-150k %.3f: the fsync",
		v("durable-churn", "step_p50_ms"), v("floor-150k", "step_p50_ms"))
	r = v("skew-cluster", "first_sample_ms") / v("floor-150k", "first_sample_ms")
	sanity(r >= 50, "skew-cluster first_sample_ms is %.0f x floor-150k's (at least 50: k-means at creation)", r)
	return ok
}
