package main

import (
	"io"
	"log/slog"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"testing"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/service"
)

// TestServerSetupResetsHeapGoal pins what setup leaves behind: it ends
// with a forced collection, so the GC goal the serving loop inherits is
// the pacer's over the live heap that collection found — live·(1 +
// percent/100), within a small tolerance, read in one snapshot from the
// same cycle — and what the server keeps is the table and the built view
// (48 + 57 B/row, see TestLocalViewRetainsOneNormalizedCopy), no build
// scratch. The snapshot's live heap is not compared with a later one: a
// forced collection can find a build closure still referenced from a
// pool goroutine caught mid-return, so that comparison is not
// deterministic under load, and the pacer's next cycle corrects such a
// goal anyway.
func TestServerSetupResetsHeapGoal(t *testing.T) {
	t.Setenv("GOGC", "")
	t.Setenv("GOMEMLIMIT", "")
	prev := debug.SetGCPercent(100)
	t.Cleanup(func() { debug.SetGCPercent(prev) })
	const rows = 200_000
	srv := service.NewServer(nil)
	srv.Registry = engine.NewRegistry()
	defer srv.Close()
	runtime.GC()
	base := heapSnapshot()
	views := []viewSpec{{"sdss", dataset.GenerateSDSS(rows, 1), []string{"rowc", "colc", "ra", "dec"}}}
	if err := setup(srv, views, slog.New(slog.NewTextHandler(io.Discard, nil))); err != nil {
		t.Fatal(err)
	}
	s := heapSnapshot()
	runtime.GC()
	kept := float64(int64(heapSnapshot().live)-int64(base.live)) / rows
	runtime.KeepAlive(srv)
	t.Logf("after setup: live %.1f MB, goal %.1f MB, GC percent %d; keeps %.1f B/row", float64(s.live)/1e6, float64(s.goal)/1e6, s.pct, kept)
	if s.forced == base.forced {
		t.Fatal("setup ran no forced collection")
	}
	if limit := s.live + s.live*uint64(s.pct)/100 + 1<<20; s.pct < 10 || s.pct > 100 || s.goal > limit {
		t.Fatalf("heap goal %d B over live %d B at GC percent %d, want a percent in [10,100] and goal <= %d", s.goal, s.live, s.pct, limit)
	}
	if kept > 115 {
		t.Fatalf("the server keeps %.1f B/row after setup, want <= 115: more than the table and the built view", kept)
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
