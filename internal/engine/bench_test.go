package engine

import (
	"fmt"
	"math/rand"
	"runtime"
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
// dimension's slab, which the view's own covering index answers without
// calling a shard.
func BenchmarkSampleSlabSharded(b *testing.B) {
	v := benchView(b, 100_000).WithShards(ShardOptions{Shards: 2})
	slab := geom.R(0, 100, 30, 50)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.SampleRect(slab, 5, rng)
	}
}

// BenchmarkCoveringIndexBuild prices one dimension of the covering-index
// build on a 1M-row table — the sortKey pass through normAt and the
// radix sort — per row, in time and in bytes allocated (the index's 4
// B/row and the sort's scratch), at one worker and at every core.
func BenchmarkCoveringIndexBuild(b *testing.B) {
	const rows = 1_000_000
	v, err := normalizeView(dataset.GenerateSDSS(rows, 1), []string{"ra"}, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				v.buildCoveringIndex(workers)
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*rows), "B/row")
		})
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
