package engine

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/par"
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

// TestSortCoveringMultiChunk runs the covering-index radix sort on
// enough keys for three 65 536-row chunks, where each chunk's bucket
// offsets start after the earlier chunks' rows, and checks the result
// at workers 1 and 3 against a stable sort: identical keys and rows,
// keys ascending, row ids ascending within equal keys. The keys carry
// heavy duplicates, −0 beside +0, and NaNs (which sort last).
func TestSortCoveringMultiChunk(t *testing.T) {
	const n = 3*(1<<16) + 12_345
	if got := par.ChunkCount(3, n, 1<<16); got != 3 {
		t.Fatalf("ChunkCount(3, %d, 65536) = %d, want 3", n, got)
	}
	rng := rand.New(rand.NewSource(47))
	alphabet := []float64{math.NaN(), math.Copysign(0, -1), 0, 12.5, 50, 100}
	keys := make([]uint64, n)
	for i := range keys {
		v := rng.Float64() * 100
		if rng.Intn(4) != 0 {
			v = alphabet[rng.Intn(len(alphabet))]
		}
		keys[i] = sortKey(v)
	}
	type keyed struct {
		key uint64
		row int32
	}
	want := make([]keyed, n)
	for i, k := range keys {
		want[i] = keyed{k, int32(i)}
	}
	slices.SortStableFunc(want, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
	for _, workers := range []int{1, 3} {
		k, rows := slices.Clone(keys), make([]int32, n)
		for i := range rows {
			rows[i] = int32(i)
		}
		sortCovering(k, rows, &coverScratch{}, workers)
		for i, w := range want {
			if k[i] != w.key || rows[i] != w.row {
				t.Fatalf("workers=%d: position %d holds (key %#x, row %d), want (key %#x, row %d)", workers, i, k[i], rows[i], w.key, w.row)
			}
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
