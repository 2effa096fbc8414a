package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"testing"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/obs"
	"github.com/explore-by-example/aide/internal/shardrpc"
)

// TestWorkerSurvivesMalformedBatch sends a real aideshard process one
// well-framed batch its shard cannot evaluate (a one-dimensional rect
// for its two-dimensional view) and then a valid one: the first must come back as the
// worker's error answer, the second as the right count — so the process
// is alive and serving, not dead with every shard it held.
func TestWorkerSurvivesMalformedBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a worker process")
	}
	sock := filepath.Join(t.TempDir(), "w.sock")
	startWorker(t, sock, "1", "-sdss", "50000", "-seed", "1", "-shards", "2", "-serve", "0")
	fp := engine.ViewFingerprint(dataset.GenerateSDSS(50000, 1), []string{"rowc", "colc"})
	client, err := shardrpc.Dial(sock, fp, 2, shardrpc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	b := client.Backends()[0]

	_, err = b.ExecuteBatch([]engine.ShardBatchItem{{Kind: engine.BatchCount, Rect: geom.Rect{{Lo: 0, Hi: 100}}}})
	if err == nil || !strings.Contains(err.Error(), "malformed rect") {
		t.Fatalf("malformed batch: err = %v, want the worker's rejection of the rect", err)
	}
	out, err := b.ExecuteBatch([]engine.ShardBatchItem{{Kind: engine.BatchCount, Rect: geom.R(0, 100, 0, 100)}})
	if err != nil {
		t.Fatalf("valid batch after the malformed one: %v", err)
	}
	if got := int(out[0].Count.Matched); got != b.NumRows() {
		t.Fatalf("full-domain count = %d, want the shard's %d rows", got, b.NumRows())
	}
}

// TestWorkerSetupResetsHeapGoal pins what setup leaves behind: it ends
// with a forced collection, so the GC goal the serving loop inherits is
// the pacer's over the live heap that collection found — live·(1 +
// percent/100), within a small tolerance, read in one snapshot from the
// same cycle — and what the worker keeps is its served shard alone
// (about 27.5 B per table row, see TestServedBuildRetainsItsShardOnly).
// The snapshot's live heap is not compared with a later one: a forced
// collection can find a build closure still referenced from a pool
// goroutine caught mid-return, so that comparison is not deterministic
// under load, and the pacer's next cycle corrects such a goal anyway.
func TestWorkerSetupResetsHeapGoal(t *testing.T) {
	t.Setenv("GOGC", "")
	t.Setenv("GOMEMLIMIT", "")
	prev := debug.SetGCPercent(100)
	t.Cleanup(func() { debug.SetGCPercent(prev) })
	const rows = 200_000
	runtime.GC()
	base := heapSnapshot()
	subset, _, err := setup(dataset.GenerateSDSS(rows, 1), []string{"rowc", "colc", "ra", "dec"}, 2, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	s := heapSnapshot()
	runtime.GC()
	kept := float64(int64(heapSnapshot().live)-int64(base.live)) / rows
	runtime.KeepAlive(subset)
	t.Logf("after setup: live %.1f MB, goal %.1f MB, GC percent %d; keeps %.1f B/row", float64(s.live)/1e6, float64(s.goal)/1e6, s.pct, kept)
	if s.forced == base.forced {
		t.Fatal("setup ran no forced collection")
	}
	if limit := s.live + s.live*uint64(s.pct)/100 + 1<<20; s.pct < 10 || s.pct > 100 || s.goal > limit {
		t.Fatalf("heap goal %d B over live %d B at GC percent %d, want a percent in [10,100] and goal <= %d", s.goal, s.live, s.pct, limit)
	}
	if kept > 32 {
		t.Fatalf("the worker keeps %.1f B/row after setup, want <= 32: more than its served shard", kept)
	}
}

// heapState is one runtime/metrics snapshot of the GC's state.
type heapState struct {
	live, goal, forced uint64
	pct                int
}

func heapSnapshot() heapState {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/heap/goal:bytes"}, {Name: "/gc/cycles/forced:gc-cycles"}, {Name: "/gc/gogc:percent"}}
	metrics.Read(s)
	return heapState{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64(), int(s[3].Value.Uint64())}
}

// TestWorkerBuildPeakBounded spawns a real worker over 600 k SDSS rows
// and reads, once it listens, its peak and current resident sets: the
// build streams the rows twice instead of holding the six-column table,
// so the peak stays within a quarter (plus runtime slack) of what the
// worker keeps serving. A build that generates the table peaks at well
// over twice that.
func TestWorkerBuildPeakBounded(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/<pid>/status")
	}
	if testing.Short() {
		t.Skip("spawns a worker process")
	}
	sock := filepath.Join(t.TempDir(), "w.sock")
	cmd := startWorker(t, sock, "peak", "-sdss", "600000", "-seed", "1", "-attrs", "rowc,colc,ra,dec", "-shards", "2", "-serve", "0")
	status := fmt.Sprintf("/proc/%d/status", cmd.Process.Pid)
	mb := func(field string) float64 {
		kb, ok := obs.ProcStatusKB(status, field)
		if !ok {
			t.Fatalf("no %s in %s", field, status)
		}
		return float64(kb) / 1024
	}
	hwm, rss := mb("VmHWM"), mb("VmRSS")
	t.Logf("worker at 600k rows: VmHWM %.1f MB, VmRSS %.1f MB", hwm, rss)
	if limit := 1.25*rss + 8; hwm > limit {
		t.Fatalf("worker build peaked at %.1f MB against %.1f MB resident, want <= %.1f", hwm, rss, limit)
	}
}

// TestWorkerServingPeakBounded spawns a real worker over 600 k SDSS rows
// serving 1 of 2 shards and drives batch traffic at it whose garbage, at
// the ≈ 470 B per count item a serve loop allocating its frames, items
// and results per batch made, would be four times the worker's resident
// set. The serving peak must stay within the worker's heap allowance
// (max(4 MiB, 10 %) over a live heap no larger than that resident set)
// plus runtime slack. Under GOGC 100 that garbage lets the heap reach
// about twice live first.
func TestWorkerServingPeakBounded(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/<pid>/status")
	}
	if testing.Short() {
		t.Skip("spawns a worker process")
	}
	if raceEnabled {
		t.Skip("the race detector inflates the worker's memory past the bound")
	}
	const rows, perBatch, bytesPerItem = 600_000, 128, 470
	attrs := []string{"rowc", "colc", "ra", "dec"}
	sock := filepath.Join(t.TempDir(), "w.sock")
	cmd := startWorker(t, sock, "serve", "-sdss", "600000", "-seed", "1", "-attrs", strings.Join(attrs, ","), "-shards", "2", "-serve", "0")
	status := fmt.Sprintf("/proc/%d/status", cmd.Process.Pid)
	mb := func(field string) float64 {
		kb, ok := obs.ProcStatusKB(status, field)
		if !ok {
			t.Fatalf("no %s in %s", field, status)
		}
		return float64(kb) / 1024
	}
	rss := mb("VmRSS")

	client, err := shardrpc.Dial(sock, engine.ViewFingerprint(dataset.SDSSSource(rows, 1), attrs), 2, shardrpc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	b := client.Backends()[0]
	rng := rand.New(rand.NewSource(1))
	items := make([]engine.ShardBatchItem, perBatch)
	batches := int(4*rss*(1<<20)) / (perBatch * bytesPerItem)
	for i := 0; i < batches; i++ {
		for k := range items {
			r := make(geom.Rect, len(attrs))
			for d := range r {
				lo := rng.Float64() * 99
				r[d] = geom.Interval{Lo: lo, Hi: lo + 1}
			}
			items[k] = engine.ShardBatchItem{Kind: engine.BatchCount, Rect: r}
		}
		if _, err := b.ExecuteBatch(items); err != nil {
			t.Fatal(err)
		}
	}
	allowance := max(4, rss/10)
	hwm := mb("VmHWM")
	t.Logf("worker at 600k rows: VmRSS %.1f MB at listen, VmHWM %.1f MB after %d batches of %d counts", rss, hwm, batches, perBatch)
	if limit := rss + allowance + 2; hwm > limit {
		t.Fatalf("worker serving peak %.1f MB over %.1f MB resident at listen, want <= %.1f (+%.1f MB allowance, +2 MB slack)", hwm, rss, limit, allowance)
	}
}
