package main

import (
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"testing"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/geom"
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
	client, err := shardrpc.Dial(sock, fp, 2, shardrpc.Options{MaxRetries: -1})
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
