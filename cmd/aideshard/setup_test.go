package main

import (
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/shardrpc"
)

// TestWorkerSurvivesMalformedBatch sends a real aideshard process one
// well-framed batch its shard cannot evaluate (a covering-index slice of
// dimension 99) and then a valid one: the first must come back as the
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

	_, err = b.ExecuteBatch([]engine.ShardBatchItem{{Kind: engine.BatchSample, Sorted: true, Dim: 99, Iv: geom.Interval{Lo: 0, Hi: 100}}})
	if err == nil || !strings.Contains(err.Error(), "dim 99") {
		t.Fatalf("malformed batch: err = %v, want the worker's rejection of dim 99", err)
	}
	out, err := b.ExecuteBatch([]engine.ShardBatchItem{{Kind: engine.BatchCount, Rect: geom.R(0, 100, 0, 100)}})
	if err != nil {
		t.Fatalf("valid batch after the malformed one: %v", err)
	}
	if got := int(out[0].Count.Matched); got != b.NumRows() {
		t.Fatalf("full-domain count = %d, want the shard's %d rows", got, b.NumRows())
	}
}

// TestWorkerSetupResetsHeapGoal pins what setup leaves behind: the GC
// goal it hands the serving loop is sized by what the worker serves
// from, not by the build. The goal is read as setup left it; the live
// heap after one more full GC is what the served shards really hold.
// Without setup's final collection the goal is whatever the build's
// last GC set — up to twice the build's peak.
func TestWorkerSetupResetsHeapGoal(t *testing.T) {
	tab := dataset.GenerateSDSS(200_000, 1)
	subset, _, err := setup(tab, []string{"rowc", "colc", "ra", "dec"}, 0, 2, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	s := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s[:1])
	runtime.GC()
	metrics.Read(s[1:])
	runtime.KeepAlive(subset)
	goal, live := s[0].Value.Uint64(), s[1].Value.Uint64()
	if float64(goal) > 2.2*float64(live) {
		t.Fatalf("heap goal after setup %d MB, live %d MB: goal > 2.2 × live", goal>>20, live>>20)
	}
}
