package cart_test

import (
	"bytes"
	"encoding/gob"
	"hash/fnv"
	"io"
	"testing"

	"github.com/explore-by-example/aide/internal/cart"
	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/eval"
	"github.com/explore-by-example/aide/internal/explore"
)

// ledgerSnapshot is the part of a session snapshot that fixes the
// training weights: the labelled rows and each row's vote tallies.
type ledgerSnapshot struct {
	Rows      []int
	LedgerPos map[int]int
	LedgerNeg map[int]int
}

// trainingWeights rebuilds the weights a session trains with from its
// snapshot: nil when no row is conflicted, else each conflicted row's
// agreement ratio max(pos, neg)/(pos+neg) and 1 for the rest.
func trainingWeights(t *testing.T, s *explore.Session) []float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := io.CopyN(io.Discard, &buf, int64(len("AIDEsess1"))); err != nil {
		t.Fatal(err)
	}
	var snap ledgerSnapshot
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	var w []float64
	for i, row := range snap.Rows {
		pos, neg := snap.LedgerPos[row], snap.LedgerNeg[row]
		if pos == 0 || neg == 0 {
			continue
		}
		if w == nil {
			w = make([]float64, len(snap.Rows))
			for j := range w {
				w[j] = 1
			}
		}
		w[i] = float64(max(pos, neg)) / float64(pos+neg)
	}
	return w
}

// TestSessionTreesMatchReference drives the three golden sessions and a
// 20 %-noise session, whose ledger trains weighted trees, and checks
// that every iteration's tree — grown incrementally by the session's
// Set — equals the reference induction retrained from scratch on the
// same labelled set. The digest of the rows each session shows, which
// its rng draws, is pinned from the induction the Set replaced: equal
// trees leave the session's rng where it was.
func TestSessionTreesMatchReference(t *testing.T) {
	sdss := dataset.GenerateSDSS(20000, 7)
	v1, err := engine.NewView(sdss, []string{"rowc", "colc"})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := eval.GenerateTarget(v1, eval.TargetSpec{NumAreas: 2, Size: eval.Large}, 11)
	if err != nil {
		t.Fatal(err)
	}
	uni := dataset.GenerateUniform(10000, 2, 3)
	v2, err := engine.NewView(uni, []string{"a0", "a1"})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := eval.GenerateTarget(v2, eval.TargetSpec{NumAreas: 1, Size: eval.Large}, 5)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := eval.GenerateTarget(v1, eval.TargetSpec{NumAreas: 1, Size: eval.Large}, 31)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		view       *engine.View
		target     eval.Target
		seed       int64
		discovery  explore.DiscoveryStrategy
		noise      float64
		maxIter    int
		wantDigest uint64
	}{
		{"sdss-grid", v1, t1, 42, explore.DiscoveryGrid, 0, 40, 0x25ac645c3c6a245d},
		{"uni-cluster", v2, t2, 9, explore.DiscoveryClustering, 0, 40, 0x48d9daeddb49b1a1},
		{"sdss-hybrid", v1, t1, 5, explore.DiscoveryHybrid, 0, 30, 0x15b2731aff32f8ff},
		{"sdss-noise20", v1, t3, 99, explore.DiscoveryGrid, 0.2, 40, 0x89874b424f1a4b8c},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var oracle explore.Oracle = eval.NewSimulatedUser(tc.target)
			if tc.noise > 0 {
				oracle = explore.NewNoisyOracle(oracle, tc.noise, 1234)
			}
			shown := fnv.New64a()
			recorder := explore.OracleFunc(func(v *engine.View, row int) bool {
				var b [8]byte
				for i := range b {
					b[i] = byte(uint64(row) >> (8 * i))
				}
				shown.Write(b[:])
				return oracle.Label(v, row)
			})
			opts := explore.DefaultOptions()
			opts.Seed = tc.seed
			opts.Discovery = tc.discovery
			s, err := explore.NewSession(tc.view, recorder, opts)
			if err != nil {
				t.Fatal(err)
			}
			iters, weighted := 0, 0
			check := func(res *explore.IterationResult) bool {
				iters++
				points, labels := s.LabeledPoints()
				weights := trainingWeights(t, s)
				got := s.Tree()
				if got == nil {
					return false
				}
				if weights != nil {
					weighted++
				}
				want, err := cart.ReferenceTrain(points, labels, weights, opts.Tree, weights != nil)
				if err != nil {
					t.Fatal(err)
				}
				if d := cart.TreeDiff(got, want); d != "" {
					t.Fatalf("iteration %d (%d labelled, weighted=%v): tree differs from reference retrain: %s",
						iters, len(points), weights != nil, d)
				}
				return tc.noise == 0 && res.TotalLabeled >= 400
			}
			if _, err := explore.RunUntil(s, check, tc.maxIter); err != nil {
				t.Fatal(err)
			}
			if tc.noise > 0 && weighted == 0 {
				t.Error("noisy session never trained a weighted tree")
			}
			t.Logf("%d iterations (%d weighted), %d labelled, shown-row digest %#x", iters, weighted, s.LabeledCount(), shown.Sum64())
			if got := shown.Sum64(); got != tc.wantDigest {
				t.Errorf("shown-row digest %#x, want %#x", got, tc.wantDigest)
			}
		})
	}
}
