package shardrpc

import (
	"testing"

	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/explore"
	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/obs"
)

// TestRemoteBitIdentitySessionRoundTrips pins the steering loop's
// round-trip economy end to end: once discovery has drained its frontier,
// an iteration over a mixed local/remote topology is ONE engine batch —
// exactly one opBatch round-trip per remote shard when the batch holds a
// grid-path item, none when every sample took the covering-index path —
// and the session stays bit-identical to an unsharded one.
func TestRemoteBitIdentitySessionRoundTrips(t *testing.T) {
	base, sharded := testViews(t, 8000, 4)
	addr, _ := startWorker(t, 8000, 4, []int{1, 3})
	mixed, _ := dialWorker(t, sharded, addr, Options{})

	target := geom.R(10, 30, 10, 30)
	oracle := explore.OracleFunc(func(v *engine.View, row int) bool {
		return target.Contains(v.NormPoint(row))
	})
	opts := explore.DefaultOptions()
	// No zooming: discovery drains all 16 level-0 cells in the first
	// iteration (budget 20) and is exhausted after it, so every later
	// iteration is pure exploitation — the one-batch-per-iteration case.
	opts.MaxZoomLevels = 0

	newSession := func(v *engine.View) *explore.Session {
		s, err := explore.NewSession(v, oracle, opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	remote := newSession(mixed)
	local := newSession(base)

	gridItems := obs.GetCounter("engine.path_grid")
	const iters = 7
	for i := 0; i < iters; i++ {
		before, gridBefore := obsRPCBatch.Value(), gridItems.Value()
		if _, err := remote.RunIteration(); err != nil {
			t.Fatal(err)
		}
		rounds, scattered := obsRPCBatch.Value()-before, gridItems.Value() > gridBefore
		if _, err := local.RunIteration(); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			// Discovery iteration: one count batch plus one sample batch
			// over the frontier window, each one round per remote shard.
			if rounds != 4 {
				t.Fatalf("discovery iteration cost %d opBatch round-trips, want 4 (2 batches x 2 remote shards)", rounds)
			}
			continue
		}
		want := int64(0)
		if scattered {
			want = 2
		}
		if rounds != want {
			t.Fatalf("iteration %d (grid items: %v) cost %d opBatch round-trips, want %d (one batch, one round per remote shard if it scatters)", i, scattered, rounds, want)
		}
	}

	// Bit-identity carried through: same labels, same prediction.
	rPts, rLabs := remote.LabeledPoints()
	lPts, lLabs := local.LabeledPoints()
	if len(rPts) != len(lPts) || len(rPts) == 0 {
		t.Fatalf("remote labeled %d rows, local %d", len(rPts), len(lPts))
	}
	for i := range rPts {
		if rLabs[i] != lLabs[i] || rPts[i].ChebyshevDist(lPts[i]) != 0 {
			t.Fatalf("sample %d diverged between remote and local sessions", i)
		}
	}
	rAreas, lAreas := remote.RelevantAreas(), local.RelevantAreas()
	if len(rAreas) != len(lAreas) {
		t.Fatalf("remote predicted %d areas, local %d", len(rAreas), len(lAreas))
	}
	for i := range rAreas {
		if !rAreas[i].Equal(lAreas[i]) {
			t.Fatalf("area %d diverged between remote and local sessions", i)
		}
	}
}
