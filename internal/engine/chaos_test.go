package engine

import (
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/faultinject"
	"github.com/explore-by-example/aide/internal/geom"
)

// chaosSeed returns the fault-injection seed, from AIDE_FAULT_SEED when
// the CI chaos matrix sets it.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	env := os.Getenv("AIDE_FAULT_SEED")
	if env == "" {
		return 1
	}
	seed, err := strconv.ParseInt(env, 10, 64)
	if err != nil {
		t.Fatalf("bad AIDE_FAULT_SEED %q: %v", env, err)
	}
	return seed
}

// TestChaosShardFaultFreeInjectorIsInvisible pins chaos property (a): an
// ACTIVE injector whose rates never fire leaves the sharded engine
// bit-identical to the unsharded reference — the fault hooks themselves
// are off the result path.
func TestChaosShardFaultFreeInjectorIsInvisible(t *testing.T) {
	tab := dataset.GenerateSDSS(8_000, 5)
	base, err := NewViewWorkers(tab, []string{"rowc", "colc"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Activate(faultinject.New(faultinject.Config{
		Seed:   chaosSeed(t),
		Points: []string{FaultShardScan, FaultShardBuild, FaultShardSample},
	}))
	defer faultinject.Deactivate()
	sv := base.WithShards(ShardOptions{Shards: 4})
	rng := rand.New(rand.NewSource(chaosSeed(t)))
	for ri, rect := range randomRects(25, 2, rng) {
		if got, want := sv.Count(rect), base.Count(rect); got != want {
			t.Fatalf("rect %d: Count = %d, want %d", ri, got, want)
		}
		if got, want := sv.RowsIn(rect), base.RowsIn(rect); !reflect.DeepEqual(got, want) {
			t.Fatalf("rect %d: RowsIn diverged under idle injector", ri)
		}
	}
}

// TestChaosShardPartialNeverWrong is the never-a-silent-wrong-answer
// invariant under randomized shard failures: every scatter either
// matches the unsharded reference bit-for-bit (no degradation reported)
// or reports shard_partial and returns a strict subset of the reference
// rows. After faults clear, the supervisor recovers every shard and
// answers are exact again.
func TestChaosShardPartialNeverWrong(t *testing.T) {
	seed := chaosSeed(t)
	tab := dataset.GenerateSDSS(8_000, 5)
	base, err := NewViewWorkers(tab, []string{"rowc", "colc"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sv := base.WithShards(ShardOptions{Shards: 4, CooldownOps: 2})
	sv, tracker := sv.WithShardTracker()

	faultinject.Activate(faultinject.New(faultinject.Config{
		Seed: seed, ErrorRate: 0.3,
		Points: []string{FaultShardScan},
	}))
	rng := rand.New(rand.NewSource(seed))
	sawPartial := false
	for ri, rect := range randomRects(30, 2, rng) {
		want := base.RowsIn(rect)
		got := sv.RowsIn(rect)
		name, partial := tracker.Drain()
		if !partial {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("rect %d: undegraded result differs from reference", ri)
			}
			continue
		}
		sawPartial = true
		if name == "" {
			t.Fatalf("rect %d: partial result with empty degradation name", ri)
		}
		ref := make(map[int]struct{}, len(want))
		for _, r := range want {
			ref[r] = struct{}{}
		}
		for _, r := range got {
			if _, ok := ref[r]; !ok {
				t.Fatalf("rect %d: degraded result contains row %d absent from reference", ri, r)
			}
		}
		if len(got) > len(want) {
			t.Fatalf("rect %d: degraded result larger than reference (%d > %d)", ri, len(got), len(want))
		}
	}
	if !sawPartial {
		t.Fatalf("seed %d: 30 ops at ErrorRate 0.3 never degraded — injector not reaching shards", seed)
	}

	// Faults clear: drive the supervisor through cooldown probes until
	// every shard is healthy, then results must be exact again.
	faultinject.Deactivate()
	full := geom.R(0, 100, 0, 100)
	healthyAll := func() bool {
		for _, h := range sv.ShardHealth() {
			if h.State != ShardHealthy.String() {
				return false
			}
		}
		return true
	}
	for i := 0; i < 20 && !healthyAll(); i++ {
		sv.Count(full)
	}
	if !healthyAll() {
		t.Fatalf("shards never recovered after faults cleared: %+v", sv.ShardHealth())
	}
	tracker.Drain()
	rng = rand.New(rand.NewSource(seed + 1))
	for ri, rect := range randomRects(10, 2, rng) {
		if got, want := sv.RowsIn(rect), base.RowsIn(rect); !reflect.DeepEqual(got, want) {
			t.Fatalf("rect %d: post-recovery result differs from reference", ri)
		}
	}
	if name, partial := tracker.Drain(); partial {
		t.Fatalf("post-recovery ops still degraded: %q", name)
	}
}

// TestChaosCoveringIndexSampleIgnoresShardFaults pins that covering-index
// samples never touch a shard, so they never degrade: with every shard
// attempt failing, an index-path SampleRect on 2 and 4 local shards and
// on a loopback remote view still draws the unsharded sample, and the
// tracker records no degradation.
func TestChaosCoveringIndexSampleIgnoresShardFaults(t *testing.T) {
	seed := chaosSeed(t)
	base, err := NewViewWorkers(dataset.GenerateSDSS(8_000, 5), []string{"rowc", "colc"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	views := map[string]*View{
		"shards=2": base.WithShards(ShardOptions{Shards: 2}),
		"shards=4": base.WithShards(ShardOptions{Shards: 4}),
		"remote":   LoopbackRemoteView(t, base, 2),
	}
	faultinject.Activate(faultinject.New(faultinject.Config{
		Seed: seed, ErrorRate: 1,
		Points: []string{FaultShardScan, FaultShardSample},
	}))
	defer faultinject.Deactivate()
	rng := rand.New(rand.NewSource(seed))
	for ri, rect := range singleDimRects(12, 2, rng) {
		n := 1 + rng.Intn(20)
		want := base.SampleRect(rect, n, rand.New(rand.NewSource(int64(ri))))
		for name, v := range views {
			tv, tracker := v.WithShardTracker()
			if got := tv.SampleRect(rect, n, rand.New(rand.NewSource(int64(ri)))); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s rect %d: sample %v under shard faults, unsharded %v", name, ri, got, want)
			}
			if deg, partial := tracker.Drain(); partial {
				t.Fatalf("%s rect %d: index-path sample degraded to %s", name, ri, deg)
			}
		}
	}
	// The faults do reach the shards: a grid query degrades.
	tv, tracker := views["shards=2"].WithShardTracker()
	tv.Count(geom.R(10, 60, 20, 70))
	if _, partial := tracker.Drain(); !partial {
		t.Fatal("a grid query under ErrorRate 1 did not degrade: the injector is not reaching the shards")
	}
}
