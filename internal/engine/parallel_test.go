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
			!reflect.DeepEqual(got.grid.rows, seq.grid.rows) {
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
