package main

import (
	"io"
	"log/slog"
	"runtime"
	"runtime/metrics"
	"testing"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/service"
)

// TestServerSetupResetsHeapGoal pins what setup leaves behind: the GC
// goal it hands the serving loop is sized by the views the server keeps,
// not by the build. The goal is read as setup left it; the live heap
// after one more full GC is what the registered views really hold.
// Without setup's final collection the goal is whatever a collection in
// the middle of the build set — twice the heap live at that moment.
func TestServerSetupResetsHeapGoal(t *testing.T) {
	srv := service.NewServer(nil)
	srv.Registry = engine.NewRegistry()
	defer srv.Close()
	views := []viewSpec{{"sdss", dataset.GenerateSDSS(200_000, 1), []string{"rowc", "colc", "ra", "dec"}}}
	if err := setup(srv, views, slog.New(slog.NewTextHandler(io.Discard, nil))); err != nil {
		t.Fatal(err)
	}
	s := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s[:1])
	runtime.GC()
	metrics.Read(s[1:])
	runtime.KeepAlive(srv)
	goal, live := s[0].Value.Uint64(), s[1].Value.Uint64()
	if float64(goal) > 2.2*float64(live) {
		t.Fatalf("heap goal after setup %d MB, live %d MB: goal > 2.2 × live", goal>>20, live>>20)
	}
}
