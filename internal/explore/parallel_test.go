package explore

import (
	"reflect"
	"testing"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/geom"
)

// runSession drives a full steering session at the given worker count and
// returns its final query SQL, stats and labeled set.
func runSession(t *testing.T, workers int, discovery DiscoveryStrategy) (string, SessionStats, []geom.Point, []bool) {
	t.Helper()
	tab := dataset.GenerateClusters(8000, 2, []dataset.ClusterSpec{
		{Center: []float64{30, 35}, Std: 8, Weight: 0.5},
		{Center: []float64{70, 65}, Std: 10, Weight: 0.5},
	}, 0.1, 7)
	v, err := engine.NewViewWorkers(tab, []string{"a0", "a1"}, workers)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Seed = 17
	opts.Workers = workers
	opts.Discovery = discovery
	s, err := NewSession(v, rectOracle(geom.R(25, 45, 25, 45)), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := s.RunIteration(); err != nil {
			t.Fatal(err)
		}
	}
	points, labels := s.LabeledPoints()
	return s.FinalQuery().SQL(), s.Stats(), points, labels
}

// TestSessionParallelEquivalence is the end-to-end determinism gate:
// a full steering session — discovery, misclassified exploitation,
// boundary exploitation, CART training, k-means clustering, every engine
// scan — must produce identical results at workers=1 and workers=8.
func TestSessionParallelEquivalence(t *testing.T) {
	for _, disc := range []DiscoveryStrategy{DiscoveryGrid, DiscoveryClustering} {
		sqlSeq, statsSeq, pointsSeq, labelsSeq := runSession(t, 1, disc)
		sqlPar, statsPar, pointsPar, labelsPar := runSession(t, 8, disc)
		if sqlSeq != sqlPar {
			t.Fatalf("%v: final query differs\nworkers=1: %s\nworkers=8: %s", disc, sqlSeq, sqlPar)
		}
		if !reflect.DeepEqual(pointsSeq, pointsPar) || !reflect.DeepEqual(labelsSeq, labelsPar) {
			t.Fatalf("%v: labeled training sets differ (%d vs %d samples)", disc, len(pointsSeq), len(pointsPar))
		}
		// Timing fields aside, effort accounting must match exactly.
		statsSeq.ExecTime, statsPar.ExecTime = 0, 0
		statsSeq.TrainTime, statsPar.TrainTime = 0, 0
		if !reflect.DeepEqual(statsSeq, statsPar) {
			t.Fatalf("%v: session stats differ\nworkers=1: %+v\nworkers=8: %+v", disc, statsSeq, statsPar)
		}
	}
}

func TestOptionsWorkersValidation(t *testing.T) {
	v := testView(t, 100, 1)
	opts := DefaultOptions()
	opts.Workers = -1
	if _, err := NewSession(v, rectOracle(), opts); err == nil {
		t.Error("negative Workers should error")
	}
	opts = DefaultOptions()
	opts.Workers = 4
	s, err := NewSession(v, rectOracle(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Options().Tree.Workers; got != 4 {
		t.Errorf("Tree.Workers = %d, want 4 (inherited from Options.Workers)", got)
	}
}
