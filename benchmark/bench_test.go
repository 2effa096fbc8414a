package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/explore-by-example/aide/internal/dataset"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentiles(t *testing.T) {
	cases := []struct {
		vals []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 99, 7},
		{[]float64{4, 1, 3, 2}, 50, 2.5}, // unsorted input, even count
		{[]float64{1, 2, 3, 4, 5}, 50, 3},
		{[]float64{1, 2, 3, 4, 5}, 25, 2},
		{[]float64{10, 20}, 99, 19.9},
	}
	for _, c := range cases {
		if got := percentile(c.vals, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.vals, c.p, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 99); !near(got, 99.01) {
		t.Errorf("p99 of 1..100 = %v, want 99.01", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", in)
	}
}

// The quartile spread must be the one Python's statistics.quantiles(n=4)
// gives, because that is what the acceptance rule is stated in.
func TestIQRShare(t *testing.T) {
	ten := []float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	// quantiles(1..10, n=4) = [2.75, 5.5, 8.25]; (8.25-2.75)/5.5 = 1.
	if got := iqrShare(ten); !near(got, 1) {
		t.Errorf("iqrShare(1..10) = %v, want 1", got)
	}
	// quantiles([1,2,4], n=4) = [1, 2, 4]; (4-1)/2.
	if got := iqrShare([]float64{4, 1, 2}); !near(got, 1.5) {
		t.Errorf("iqrShare([1 2 4]) = %v, want 1.5", got)
	}
	if got := iqrShare([]float64{5}); got != 0 {
		t.Errorf("a single run has no spread, got %v", got)
	}
}

// The gated timings are quartiles over sessions of per-session
// statistics: disturbed sessions must not move them. The whole-run
// statistics beside them are over everything, and must.
func TestEndToEndIsQuartileOfSessions(t *testing.T) {
	step := func(n int, d time.Duration) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = d
		}
		return out
	}
	r := spawnedResult{Setups: []time.Duration{time.Second, 3 * time.Second, 2 * time.Second}}
	// Five sessions of 2 iterations: three undisturbed at 1 ms a step, two
	// slowed to 3 and 100 ms a step.
	for i, d := range []time.Duration{time.Millisecond, time.Millisecond, time.Millisecond, 3 * time.Millisecond, 100 * time.Millisecond} {
		r.Drive.Sessions = append(r.Drive.Sessions, sessionResult{Index: i, Steps: step(40, d), Iterations: 2, FirstSample: 2 * d})
	}
	r.Intervals = []interval{
		{Seconds: 1, Iterations: 50, CPUMillis: 500},
		{Seconds: 1, Iterations: 50, CPUMillis: 500},
		{Seconds: 1, Iterations: 50, CPUMillis: 500},
		{Seconds: 2, Iterations: 50, CPUMillis: 900}, // a disturbed interval
		{Seconds: 1, Iterations: 0, CPUMillis: 3},    // nothing completed: no rate
	}
	m, whole, err := endToEnd(r)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"iter_wait_ms": 20, "step_p50_ms": 1, "step_p99_ms": 1, "first_sample_ms": 2,
		"iters_per_s": 50, "server_cpu_ms_per_iter": 10, "setup_s": 2,
	} {
		if !near(m[name].Value, want) {
			t.Errorf("%s = %v, want %v", name, m[name].Value, want)
		}
	}
	if n := m["step_p99_ms"].N; n != 5 {
		t.Errorf("step_p99_ms reports n = %d, want the 5 sessions its quartile is over", n)
	}
	// 200 pooled steps: 120 at 1 ms, 40 at 3 ms, 40 at 100 ms.
	for name, want := range map[string]float64{
		"whole.iter_wait_ms": 20, "whole.step_p50_ms": 1, "whole.step_p99_ms": 100, "whole.first_sample_ms": 2,
		"whole.iters_per_s": 200.0 / 6, "whole.server_cpu_ms_per_iter": 2403.0 / 200,
	} {
		if !near(whole[name].Value, want) {
			t.Errorf("%s = %v, want %v", name, whole[name].Value, want)
		}
	}
	for name := range whole {
		if _, ok := m[strings.TrimPrefix(name, "whole.")]; !ok {
			t.Errorf("%s has no gated counterpart for -compare to print it under", name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	sp := func(id, parent, start, end int64) span { return span{ID: id, Parent: parent, Start: start, End: end} }
	spans := []span{
		sp(1, 0, 0, 100),  // root
		sp(2, 1, 10, 60),  // nested child
		sp(3, 2, 20, 30),  // grandchild
		sp(4, 1, 50, 90),  // sibling overlapping child 2 by 10
		sp(5, 99, 0, 40),  // parent never recorded: a root of its own
		sp(6, 1, 95, 130), // child outliving its parent
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{
		1: 100 - (80 + 5), // children cover [10,90] once, and [95,100] after clipping
		2: 50 - 10,
		3: 10,
		4: 40,
		5: 40,
		6: 5,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

// The budget gives every instant of a step that a span below the root
// covers to the deepest open layer, once even when two shards answer in
// parallel; the root itself fills no hole.
func TestLayerBudgetCloses(t *testing.T) {
	id := int64(0)
	sp := func(name string, start, end int64) span {
		id++
		return span{Trace: "s0/3", ID: id, Name: name, Start: start, End: end}
	}
	root := sp("client.step", 0, 1000)
	trace := []span{
		root,
		sp("client.label", 0, 200),
		sp("service.handle.label", 50, 150),
		sp("client.sample", 220, 990),
		sp("service.handle.sample", 250, 950),
		sp("engine.shard_call", 240, 600), // began before the handler did
		sp("engine.shard_call", 300, 700), // in parallel with the first
		sp("shardrpc.worker_exec", 320, 560),
		sp("shardrpc.worker_exec", 380, 650),
		sp("engine.shard_call", 5000, 6000), // not within the step at all
	}
	got := layerBudget(root, trace)
	want := [numLayers]time.Duration{
		layerWorker:   650 - 320,                     // [320,650], the overlap once
		layerShardRPC: (700 - 240) - 330,             // [240,700] minus the workers
		layerService:  100 + (950 - 250) - 450,       // handlers minus [250,700]; [240,250] is the call's
		layerClient:   200 + (990 - 220) - 100 - 710, // the two operations minus what is deeper
	}
	if got != want {
		t.Errorf("layerBudget = %v, want %v", got, want)
	}
	if sum := got[0] + got[1] + got[2] + got[3]; sum != 970 {
		t.Errorf("layers sum to %d, want the 970 the operations cover: [200,220] and [990,1000] are nobody's", sum)
	}
	// A dropped operation span leaves a hole instead of falling to the client.
	if got := layerBudget(root, trace[:3]); got[layerClient]+got[layerService] != 200 {
		t.Errorf("without the sample operation the layers hold %v, want 200 in all", got)
	}
}

func TestSessionsAreSeeded(t *testing.T) {
	tab := dataset.GenerateSDSS(20_000, 7)
	for _, w := range workloads {
		w.Rows = tab.NumRows()
		for i := -2; i < 6; i++ {
			a, err := w.session(tab, 1, i)
			if err != nil {
				t.Fatalf("%s session %d: %v", w.Name, i, err)
			}
			b, _ := w.session(tab, 1, i)
			if !reflect.DeepEqual(a.Target, b.Target) || a.Req != b.Req {
				t.Errorf("%s session %d is not deterministic", w.Name, i)
			}
			if len(a.Target) != w.Areas {
				t.Errorf("%s session %d has %d areas, want %d", w.Name, i, len(a.Target), w.Areas)
			}
			for k, area := range a.Target {
				n := 0
				for row := 0; row < tab.NumRows(); row++ {
					if inAny(a.cols, []rawRect{area}, row) {
						n++
					}
				}
				if n == 0 {
					t.Errorf("%s session %d area %d holds no row", w.Name, i, k)
				}
			}
			other, _ := w.session(tab, 2, i)
			if other.Req.Seed == a.Req.Seed {
				t.Errorf("%s session %d: seeds 1 and 2 give the same session seed", w.Name, i)
			}
		}
	}
	local, _ := workloadByName("local-3m")
	remote, _ := workloadByName("remote-3m")
	a, _ := local.session(tab, 3, 0)
	b, _ := remote.session(tab, 3, 0)
	if !reflect.DeepEqual(a.Target, b.Target) || a.Req != b.Req || local.datasetSeed(3) != remote.datasetSeed(3) {
		t.Error("local-3m and remote-3m must run identical sessions over identical data")
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "iter_wait_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "iters_per_s", Better: "higher", Bound: 0.10}
	cases := []struct {
		d    specMetric
		a, b []float64
		want string
	}{
		{lower, []float64{10, 10.1, 9.9}, []float64{10.5, 10.4, 10.6}, "unchanged"},
		{lower, []float64{10, 10.1, 9.9}, []float64{11.5, 11.4, 11.6}, "REGRESSED"},
		{lower, []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, "unchanged"}, // better is never a regression
		{lower, []float64{8, 10, 12}, []float64{10.2, 10.3, 10.4}, "unresolved"},
		{lower, []float64{10}, []float64{10.5}, "unresolved"}, // one run a side: the spread is unknown
		{lower, []float64{10}, []float64{11.5}, "REGRESSED"},
		{higher, []float64{100, 101, 99}, []float64{85, 86, 84}, "REGRESSED"},
		{higher, []float64{100, 101, 99}, []float64{120, 121, 119}, "unchanged"},
	}
	for _, c := range cases {
		if _, _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}

func TestDeclarationNamesTheWorkloads(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	declared, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range declared.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program's %v", got, want)
	}
}

func TestRefusesMoreClientsThanCPUs(t *testing.T) {
	w, _ := workloadByName("durable-churn")
	w.Clients = runtime.NumCPU() + 1
	_, err := runWorkload(context.Background(), env{}, spec{}, w, 1, 0, 1, noCap)
	if err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Errorf("want a refusal, got %v", err)
	}
}

// survivors lists running processes started from binDir.
func survivors(t *testing.T, binDir string) []string {
	var out []string
	cmdlines, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, path := range cmdlines {
		b, err := os.ReadFile(path)
		if err == nil && strings.HasPrefix(string(b), binDir) {
			out = append(out, strings.ReplaceAll(string(b), "\x00", " "))
		}
	}
	return out
}

// TestSmokeRemoteMiniature runs a 5k-row, 2-session miniature of
// remote-3m end to end — spawned server and two workers, correctness
// gate on — untraced and traced.
func TestSmokeRemoteMiniature(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	declared, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	e := env{root: root}
	if e.binDir, err = buildBinaries(ctx, root); err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("remote-3m")
	w.Name = "smoke" // its own run directory
	w.Rows, w.MaxIter, w.TracedSessions = 5000, 10, 2
	for trace, want := range [][]specMetric{declared.EndToEnd, declared.PerLayer} {
		rec, err := runWorkload(ctx, e, declared, w, 1, trace, 0, 2)
		if err != nil {
			t.Fatalf("trace %d: %v\n%s", trace, err, strings.Join(rec.Problems, "\n"))
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
			t.Errorf("trace %d: correct %v, %d of %d failed: %v", trace, rec.Correct, rec.Failed, rec.Attempted, rec.Problems)
		}
		for _, d := range want {
			if _, ok := rec.Metrics[d.Name]; !ok {
				t.Errorf("trace %d: metric %s missing", trace, d.Name)
			}
		}
		if trace == 0 && len(rec.SQL) != 2 {
			t.Errorf("ran %d sessions, want 2", len(rec.SQL))
		}
		if trace == 1 && rec.Metrics["shardrpc.calls_per_iter"].Value == 0 {
			t.Error("the miniature's shard calls did not cross shardrpc")
		}
		if left := survivors(t, e.binDir); len(left) > 0 {
			t.Errorf("trace %d: child processes survived: %v", trace, left)
		}
		if _, err := os.Stat(e.runDir(w)); !os.IsNotExist(err) {
			t.Errorf("trace %d: run directory %s was not removed", trace, e.runDir(w))
		}
	}
}
