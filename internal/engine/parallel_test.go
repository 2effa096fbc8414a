package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/geom"
)

// randomRects yields n random query rects in d dims, mixing narrow boxes,
// wide slabs and the full domain — the shapes the steering loop issues.
func randomRects(n, d int, rng *rand.Rand) []geom.Rect {
	out := make([]geom.Rect, 0, n)
	for i := 0; i < n; i++ {
		r := make(geom.Rect, d)
		for j := range r {
			switch rng.Intn(3) {
			case 0: // narrow box
				lo := rng.Float64() * 90
				r[j] = geom.Interval{Lo: lo, Hi: lo + rng.Float64()*10}
			case 1: // wide slab
				lo := rng.Float64() * 50
				r[j] = geom.Interval{Lo: lo, Hi: lo + 30 + rng.Float64()*50}
			default: // unconstrained
				r[j] = geom.Interval{Lo: geom.NormMin, Hi: geom.NormMax}
			}
		}
		out = append(out, r)
	}
	return out
}

// TestViewBuildParallelEquivalence asserts NewViewWorkers builds the same
// indexes at every worker count.
func TestViewBuildParallelEquivalence(t *testing.T) {
	tab := dataset.GenerateSDSS(20_000, 7)
	attrs := []string{"ra", "dec", "rowc", "field"}
	seq, err := NewViewWorkers(tab, attrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := NewViewWorkers(tab, attrs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.sorted, seq.sorted) {
			t.Fatalf("workers=%d: sorted indexes differ", workers)
		}
		if got.grid.cellsPerDim != seq.grid.cellsPerDim ||
			!reflect.DeepEqual(got.grid.offsets, seq.grid.offsets) ||
			!reflect.DeepEqual(got.grid.rows, seq.grid.rows) ||
			!reflect.DeepEqual(got.grid.slotOf, seq.grid.slotOf) {
			t.Fatalf("workers=%d: grid cell layout differs", workers)
		}
		if !reflect.DeepEqual(got.grid.slabs, seq.grid.slabs) {
			t.Fatalf("workers=%d: column slabs differ", workers)
		}
		if !reflect.DeepEqual(got.grid.zoneMin, seq.grid.zoneMin) ||
			!reflect.DeepEqual(got.grid.zoneMax, seq.grid.zoneMax) {
			t.Fatalf("workers=%d: zonemaps differ", workers)
		}
	}
}

// TestScanParallelEquivalence asserts Count, RowsIn and SampleRect return
// identical results (and identical examined-row accounting) at workers=1
// and workers=8 across random rects.
func TestScanParallelEquivalence(t *testing.T) {
	tab := dataset.GenerateSDSS(30_000, 3)
	base, err := NewViewWorkers(tab, []string{"rowc", "colc"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	parV := base.WithWorkers(8)
	// Give the parallel view its own stats so accounting can be compared.
	parV.stats = &Stats{}

	rng := rand.New(rand.NewSource(11))
	for _, rect := range randomRects(40, 2, rng) {
		base.stats.Reset()
		parV.stats.Reset()
		if got, want := parV.Count(rect), base.Count(rect); got != want {
			t.Fatalf("Count(%v): workers=8 got %d, workers=1 got %d", rect, got, want)
		}
		if got, want := parV.RowsIn(rect), base.RowsIn(rect); !reflect.DeepEqual(got, want) {
			t.Fatalf("RowsIn(%v): workers=8 returned %d rows in different order/content than workers=1 (%d rows)",
				rect, len(got), len(want))
		}
		_, seqExam := base.stats.Snapshot()
		_, parExam := parV.stats.Snapshot()
		if seqExam != parExam {
			t.Fatalf("rect %v: rows examined %d (workers=1) vs %d (workers=8)", rect, seqExam, parExam)
		}

		// Sampling must be bit-identical for the same rng state because
		// the candidate layout is worker-count independent.
		seqRng := rand.New(rand.NewSource(99))
		parRng := rand.New(rand.NewSource(99))
		want := base.SampleRect(rect, 15, seqRng)
		got := parV.SampleRect(rect, 15, parRng)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("SampleRect(%v): workers=8 sampled %v, workers=1 sampled %v", rect, got, want)
		}
	}
}

// TestCountMatchesScanRect pins the full-cell fast path to the per-row
// reference scan.
func TestCountMatchesScanRect(t *testing.T) {
	tab := dataset.GenerateSDSS(10_000, 5)
	v, err := NewView(tab, []string{"rowc", "colc"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for _, rect := range randomRects(25, 2, rng) {
		want := 0
		v.scanRect(rect, func(int) bool { want++; return true })
		if got := v.Count(rect); got != want {
			t.Fatalf("Count(%v) = %d, scanRect counts %d", rect, got, want)
		}
	}
}
