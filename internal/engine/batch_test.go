package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/geom"
)

// randomBatch builds a mixed batch over the rect generators the shard
// equivalence tests use: grid-path counts/rows/samples, covering-index
// samples (single constrained dimension), plus the edge cases the
// sequential API defines behavior for (n<=0, inverted rects).
func randomBatch(dims int, rng *rand.Rand) []BatchQuery {
	n := 4 + rng.Intn(20)
	grid := randomRects(n, dims, rng)
	single := singleDimRects(n, dims, rng)
	out := make([]BatchQuery, 0, n)
	for i := 0; i < n; i++ {
		rect := grid[i]
		if rng.Intn(3) == 0 {
			rect = single[i]
		}
		q := BatchQuery{Rect: rect}
		switch rng.Intn(4) {
		case 0:
			q.Kind = BatchCount
		case 1:
			q.Kind = BatchRows
		default:
			q.Kind = BatchSample
			q.N = rng.Intn(25)
			if rng.Intn(12) == 0 {
				q.N = -1
			}
		}
		if rng.Intn(16) == 0 {
			// Inverted interval: validRect rejects it in both paths.
			d := rng.Intn(dims)
			q.Rect = q.Rect.Clone()
			q.Rect[d] = geom.Interval{Lo: 60, Hi: 40}
		}
		out = append(out, q)
	}
	return out
}

// runSequential is the reference: each sub-query in order through the
// per-row reference scan (samples through the materializing
// referenceSample), sharing one rng exactly like the session loop. v
// must be unsharded.
func runSequential(v *View, queries []BatchQuery, rng *rand.Rand) (counts []int, rows [][]int, samples [][]int) {
	counts = make([]int, len(queries))
	rows = make([][]int, len(queries))
	samples = make([][]int, len(queries))
	for i, q := range queries {
		switch q.Kind {
		case BatchCount:
			counts[i] = len(scanRows(v, q.Rect))
		case BatchRows:
			rows[i] = scanRows(v, q.Rect)
		case BatchSample:
			samples[i] = referenceSample(v, q.Rect, q.N, rng)
		}
	}
	return counts, rows, samples
}

// drainBatch executes the batch and draws every sample in request
// order, the way the session loop consumes BatchResults.
func drainBatch(v *View, queries []BatchQuery, rng *rand.Rand) (counts []int, rows [][]int, samples [][]int) {
	br := v.ExecuteBatch(queries)
	counts = make([]int, len(queries))
	rows = make([][]int, len(queries))
	samples = make([][]int, len(queries))
	for i, q := range queries {
		switch q.Kind {
		case BatchCount:
			counts[i] = br.Count(i)
		case BatchRows:
			rows[i] = br.Rows(i)
		case BatchSample:
			samples[i] = br.Sample(i, rng)
		}
	}
	return counts, rows, samples
}

// TestBatchEquivalence pins the tentpole contract: ExecuteBatch +
// in-order lazy draws is bit-identical to the sequential per-request
// loop — same counts, same rows, same sampled rows from the same rng
// stream — at every shard count, with and without a predicate cache.
func TestBatchEquivalence(t *testing.T) {
	tab := dataset.GenerateSDSS(20_000, 7)
	base, err := NewViewWorkers(tab, []string{"rowc", "colc"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	views := map[string]*View{
		"unsharded": base,
		"cached":    base.WithCache(NewCache(1 << 20)),
	}
	for _, shards := range []int{1, 4} {
		sv := base.WithShards(ShardOptions{Shards: shards})
		views[map[int]string{1: "sharded1", 4: "sharded4"}[shards]] = sv
	}
	views["sharded4cached"] = views["sharded4"].WithCache(NewCache(1 << 20))

	gen := rand.New(rand.NewSource(3))
	for round := 0; round < 12; round++ {
		queries := randomBatch(2, gen)
		seed := int64(round + 100)
		wantCounts, wantRows, wantSamples := runSequential(base, queries, rand.New(rand.NewSource(seed)))
		for name, v := range views {
			// Twice per view: the second pass exercises cache hits on the
			// cached views and pooled buffers everywhere.
			for pass := 0; pass < 2; pass++ {
				counts, rows, samples := drainBatch(v, queries, rand.New(rand.NewSource(seed)))
				if !reflect.DeepEqual(counts, wantCounts) {
					t.Fatalf("round %d %s pass %d: counts = %v, want %v", round, name, pass, counts, wantCounts)
				}
				if !reflect.DeepEqual(rows, wantRows) {
					t.Fatalf("round %d %s pass %d: rows differ", round, name, pass)
				}
				if !reflect.DeepEqual(samples, wantSamples) {
					t.Fatalf("round %d %s pass %d: samples differ\n got %v\nwant %v", round, name, pass, samples, wantSamples)
				}
			}
		}
	}
}

// TestBatchHaltLeavesRNGSequential pins the halt contract: a caller
// that stops drawing mid-batch (budget, cancellation, conflict) leaves
// the rng exactly where the sequential loop would have — the remaining
// sub-queries never consume rng state.
func TestBatchHaltLeavesRNGSequential(t *testing.T) {
	tab := dataset.GenerateSDSS(8_000, 5)
	base, err := NewViewWorkers(tab, []string{"rowc", "colc"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded := base.WithShards(ShardOptions{Shards: 4})
	gen := rand.New(rand.NewSource(9))
	queries := randomBatch(2, gen)
	var sampleIdx []int
	for i, q := range queries {
		if q.Kind == BatchSample {
			sampleIdx = append(sampleIdx, i)
		}
	}
	if len(sampleIdx) < 2 {
		t.Fatal("batch generator produced too few sample queries")
	}
	for halt := 0; halt <= len(sampleIdx); halt++ {
		seqRng := rand.New(rand.NewSource(42))
		for _, i := range sampleIdx[:halt] {
			referenceSample(base, queries[i].Rect, queries[i].N, seqRng)
		}
		for _, v := range []*View{base, sharded} {
			batchRng := rand.New(rand.NewSource(42))
			br := v.ExecuteBatch(queries)
			for _, i := range sampleIdx[:halt] {
				br.Sample(i, batchRng)
			}
			for probe := 0; probe < 4; probe++ {
				if got, want := batchRng.Int63(), seqRng.Int63(); got != want {
					t.Fatalf("halt=%d shards=%d: rng diverged at probe %d", halt, v.ShardCount(), probe)
				}
			}
			// Re-sync the reference stream consumed by the probes.
			seqRng = rand.New(rand.NewSource(42))
			for _, i := range sampleIdx[:halt] {
				referenceSample(base, queries[i].Rect, queries[i].N, seqRng)
			}
		}
	}
}

// TestBatchGridEvalUnionAndPerItemAgree forces both kernel modes over
// the same items: tightly overlapping rects take the shared union walk,
// scattered rects the per-item fallback, and both must match the
// reference scan row for row. The scattered set makes the union box
// mostly empty space, which is exactly when the fallback triggers.
func TestBatchGridEvalUnionAndPerItemAgree(t *testing.T) {
	tab := dataset.GenerateSDSS(12_000, 11)
	base, err := NewViewWorkers(tab, []string{"rowc", "colc"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	overlapping := make([]BatchQuery, 0, 8)
	scattered := make([]BatchQuery, 0, 8)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 8; i++ {
		lo := 40 + rng.Float64()*10
		overlapping = append(overlapping, BatchQuery{Kind: BatchRows, Rect: geom.R(lo, lo+8, lo-5, lo+3)})
		clo := float64((i * 12) % 90)
		scattered = append(scattered, BatchQuery{Kind: BatchRows, Rect: geom.R(clo, clo+2, clo, clo+2)})
	}
	for name, queries := range map[string][]BatchQuery{"overlapping": overlapping, "scattered": scattered} {
		_, wantRows, _ := runSequential(base, queries, rand.New(rand.NewSource(1)))
		_, rows, _ := drainBatch(base, queries, rand.New(rand.NewSource(1)))
		if !reflect.DeepEqual(rows, wantRows) {
			t.Fatalf("%s: batched rows differ from sequential", name)
		}
	}
}
