package kmeans

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/explore-by-example/aide/internal/geom"
)

// checkLevelsMatchCluster fits ks with ClusterLevels and with one Cluster
// call per level, both from an rng seeded with seed, and fails unless
// every Result field is bit-identical and both rngs are left at the same
// position.
func checkLevelsMatchCluster(t *testing.T, label string, points []geom.Point, ks []int, params Params, seed int64) {
	t.Helper()
	seqRng := rand.New(rand.NewSource(seed))
	want := make([]*Result, len(ks))
	for l, k := range ks {
		params.K = k
		res, err := Cluster(points, params, seqRng)
		if err != nil {
			t.Fatalf("%s: Cluster level %d: %v", label, l, err)
		}
		want[l] = res
	}
	rng := rand.New(rand.NewSource(seed))
	got, err := ClusterLevels(context.Background(), points, ks, params, rng)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(got) != len(ks) {
		t.Fatalf("%s: %d results for %d levels", label, len(got), len(ks))
	}
	for l := range ks {
		if diff := diffResult(got[l], want[l]); diff != "" {
			t.Fatalf("%s: level %d (K=%d): %s (want: successive Cluster calls')", label, l, ks[l], diff)
		}
	}
	if rng.Int63() != seqRng.Int63() {
		t.Fatalf("%s: rng left at a different position than successive Cluster calls", label)
	}
}

// TestClusterLevelsMatchesCluster: the level pipeline returns what
// successive Cluster calls sharing the rng return, bit for bit, and
// leaves the rng where they leave it. The cases include levels whose K
// exceeds the distinct points (seeding stops early and draws fewer
// floats, which moves every later level's seeds), an empty-cluster
// re-seed, and the discovery hierarchy's shape.
func TestClusterLevelsMatchesCluster(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		points, params := refCase(rand.New(rand.NewSource(seed)), 600)
		ks := []int{params.K, 1 + params.K/2, params.K + 3, 1}
		label := fmt.Sprintf("seed=%d n=%d d=%d ks=%v MaxIters=%d", seed, len(points), len(points[0]), ks, params.MaxIters)
		checkLevelsMatchCluster(t, label, points, ks, params, seed)
	}

	// refCase's re-seed case: level 0 empties a cluster.
	points, params := refCase(rand.New(rand.NewSource(25845)), 40)
	if _, reseeds := referenceCluster(points, params, rand.New(rand.NewSource(25845))); reseeds == 0 {
		t.Fatal("seed 25845 no longer re-seeds an empty cluster; scan for another case")
	}
	checkLevelsMatchCluster(t, "re-seed seed=25845", points, []int{params.K, params.K, 2}, params, 25845)

	// Fewer distinct points than any level's K.
	lattice := make([]geom.Point, 60)
	for i := range lattice {
		lattice[i] = geom.Point{float64(i % 3), float64(i % 2)}
	}
	checkLevelsMatchCluster(t, "6 distinct points", lattice, []int{4, 10, 50}, Params{}, 7)

	// The clustering-discovery hierarchy at default options.
	checkLevelsMatchCluster(t, "hierarchy", clusterPoints(2000, 2, 6, 1), []int{16, 64, 250}, Params{MaxIters: 20}, 1)
}

// countdownCtx reports cancellation from its n-th Err call on, so a
// test can cancel a fit at a chosen check.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestClusterLevelsCancel: a cancelled ctx makes ClusterLevels return an
// error wrapping ctx.Err(), whichever level's check sees it, and the
// call returns only once every level's goroutine has.
func TestClusterLevelsCancel(t *testing.T) {
	points := clusterPoints(2000, 2, 6, 1)
	ks := []int{16, 64, 250}
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ClusterLevels(ctx, points, ks, Params{MaxIters: 20}, rand.New(rand.NewSource(1))); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v, want one wrapping context.Canceled", err)
	}

	// Cancel at the n-th check: before a level's seeding, or in any
	// level's Lloyd loop while the others run.
	cancelled := 0
	for n := int64(0); n < 60; n += 3 {
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(n)
		_, err := ClusterLevels(ctx, points, ks, Params{MaxIters: 20}, rand.New(rand.NewSource(1)))
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancel at check %d: err = %v, want one wrapping context.Canceled", n, err)
			}
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no countdown cancelled a fit; the case checks nothing")
	}

	// wg.Done runs before a level's goroutine exits, so its exit may
	// trail the return by a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
