package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/geom"
)

// Micro-benchmarks for the engine primitives behind AIDE's
// sample-extraction queries. These quantify the substrate costs the
// paper attributes to MySQL: region counting, region sampling, and
// whole-domain boundary-slab sampling (the expensive case of §5.2).

func benchView(b *testing.B, rows int) *View {
	b.Helper()
	tab := dataset.GenerateSDSS(rows, 1)
	v, err := NewView(tab, []string{"rowc", "colc"})
	if err != nil {
		b.Fatal(err)
	}
	return v
}

func BenchmarkViewBuild100k(b *testing.B) {
	tab := dataset.GenerateSDSS(100_000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewView(tab, []string{"rowc", "colc"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCountSmallRect(b *testing.B) {
	v := benchView(b, 100_000)
	rect := geom.R(40, 48, 40, 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Count(rect)
	}
}

// BenchmarkCountLargeRect exercises Count's fast path on a rect
// dominated by fully-contained grid cells: their rows are summed via
// len() with no per-row verification or callback.
func BenchmarkCountLargeRect(b *testing.B) {
	v := benchView(b, 100_000)
	rect := geom.R(10, 90, 10, 90)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Count(rect)
	}
}

// BenchmarkCountLargeRectPerRow is the pre-fast-path reference: the same
// count through scanRect's per-row closure. The gap between this and
// BenchmarkCountLargeRect is the win of summing full cells wholesale.
func BenchmarkCountLargeRectPerRow(b *testing.B) {
	v := benchView(b, 100_000)
	rect := geom.R(10, 90, 10, 90)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		v.scanRect(rect, func(int) bool { n++; return true })
	}
}

// BenchmarkRowsInLargeRect emits the row ids of a rect dominated by
// fully-contained grid cells: nearly all of its cost is the per-span
// widening of slot-ordered int32 row ids into the []int result.
func BenchmarkRowsInLargeRect(b *testing.B) {
	v := benchView(b, 100_000)
	rect := geom.R(10, 90, 10, 90)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.RowsIn(rect)
	}
}

func BenchmarkSampleRectSmall(b *testing.B) {
	v := benchView(b, 100_000)
	rect := geom.R(40, 48, 40, 48)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.SampleRect(rect, 10, rng)
	}
}

// BenchmarkSampleBoundarySlab samples a face slab spanning the whole
// domain in one dimension — the query shape of boundary exploitation
// with whole-domain sampling, the paper's most expensive extraction.
func BenchmarkSampleBoundarySlab(b *testing.B) {
	v := benchView(b, 100_000)
	slab := geom.R(0, 100, 49, 51)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.SampleRect(slab, 5, rng)
	}
}

// BenchmarkSampleSlabSharded is BenchmarkSampleBoundarySlab's
// covering-index shape on a 2-shard view: a few draws from one
// dimension's slab, whose positions rankRow finds in the shards' slices
// without merging them.
func BenchmarkSampleSlabSharded(b *testing.B) {
	v := benchView(b, 100_000).WithShards(ShardOptions{Shards: 2})
	slab := geom.R(0, 100, 30, 50)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.SampleRect(slab, 5, rng)
	}
}

// BenchmarkMergedRangeResolve prices the two ways a sharded covering-
// index sample can find its drawn rows, on covering-index ranges of a
// 1M-row table: rank is one rankRow (ns/op is per draw), merge is one
// mergeSorted of the whole range (ns/op is per merge). merge/rank is the
// draw count from which merging would be the cheaper way.
func BenchmarkMergedRangeResolve(b *testing.B) {
	tab := dataset.GenerateSDSS(1_000_000, 1)
	base, err := NewView(tab, []string{"rowc", "colc"})
	if err != nil {
		b.Fatal(err)
	}
	const dim = 1 // shards cut the outer dimension, so every shard holds part of a range on this one
	idx := base.sorted[dim]
	for _, shards := range []int{2, 4} {
		ss := base.WithShards(ShardOptions{Shards: shards}).shards
		for _, size := range []int{16, 256, 4096, 65536} {
			lo := len(idx) / 3
			iv := geom.Interval{Lo: base.normAt(dim, int(idx[lo])), Hi: base.normAt(dim, int(idx[lo+size-1]))}
			m := &mergedRange{v: base, dim: dim}
			total := 0
			for _, sh := range ss.shards {
				if part := sh.sortedSlice(dim, iv); len(part) > 0 {
					m.parts = append(m.parts, part)
					total += len(part)
				}
			}
			name := fmt.Sprintf("shards=%d/range=%d", len(m.parts), size)
			b.Run(name+"/rank", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.rankRow(i * 7919 % total)
				}
			})
			b.Run(name+"/merge", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.mergeSorted(total)
				}
			})
		}
	}
}

func BenchmarkSampleAll(b *testing.B) {
	v := benchView(b, 100_000)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.SampleAll(20, rng)
	}
}

func BenchmarkQueryExecute(b *testing.B) {
	v := benchView(b, 100_000)
	q := Query{
		Table: "PhotoObjAll",
		Attrs: []string{"rowc", "colc"},
		Areas: []geom.Rect{
			{{Lo: 100, Hi: 300}, {Lo: 100, Hi: 400}},
			{{Lo: 900, Hi: 1100}, {Lo: 1500, Hi: 1800}},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Execute(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSampledViewBuild(b *testing.B) {
	v := benchView(b, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Sampled(0.1, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
