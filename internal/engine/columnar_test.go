package engine

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/geom"
)

// This file holds the oracle tests for the columnar grid engine: every
// pruned / bitmap / parallel fast path in Count, RowsIn and RowsInAny
// must return exactly what a naive per-row Contains scan returns, on
// tables engineered to hit empty cells, single-row cells, duplicate-value
// cells and rect edges that land exactly on cell boundaries or data
// values. Run with -race to exercise the deterministic parallel replay.

// gridVisible reports whether row's grid cell is overlapped by rect —
// the pruning granularity at which the engine can see a row. For rows
// with finite coordinates this is implied by Contains (cell assignment
// is monotone in the value, with the same clamping as cellRange), so it
// only changes the reference for NaN coordinates: NaN lands in cell 0
// along its dimension (cellOf's negative clamp), and the engine — old
// row-major and new columnar alike — only reaches such a row when the
// rect's cell range includes that cell.
func gridVisible(v *View, rect geom.Rect, row int) bool {
	g := v.grid
	// The row's cell is the one whose slot range holds the row's slot.
	slot := g.slotOf[row]
	id := sort.Search(g.numCells(), func(c int) bool { return g.offsets[c+1] > slot })
	for i := g.dims - 1; i >= 0; i-- {
		c := id % g.cellsPerDim
		id /= g.cellsPerDim
		lo, hi, ok := g.cellRange(rect[i])
		if !ok || c < lo || c > hi {
			return false
		}
	}
	return true
}

// naiveRows is the reference implementation: scan every row with the
// same Contains predicate the engine documents, restricted to rows whose
// grid cell the rect reaches (see gridVisible — NaN only).
func naiveRows(v *View, rect geom.Rect) []int {
	var out []int
	for r := 0; r < v.NumRows(); r++ {
		if v.Contains(rect, r) && gridVisible(v, rect, r) {
			out = append(out, r)
		}
	}
	return out
}

func naiveRowsAny(v *View, rects []geom.Rect) []int {
	var out []int
	for r := 0; r < v.NumRows(); r++ {
		for _, rect := range rects {
			if v.Contains(rect, r) && gridVisible(v, rect, r) {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

// randomColumnarTable builds a d-dim table whose raw values equal their
// normalized values (domain [0,100]), mixing uniform points, clustered
// duplicates (single-value cells), exact cell-boundary values and a few
// NaNs — the cases that stress zonemap classification.
func randomColumnarTable(d, rows int, rng *rand.Rand, withNaN bool) *dataset.Table {
	schema := make(dataset.Schema, d)
	for i := range schema {
		schema[i] = dataset.Column{Name: fmt.Sprintf("c%d", i), Min: geom.NormMin, Max: geom.NormMax}
	}
	b := dataset.NewBuilder("columnar-prop", schema)
	vals := make([]float64, d)
	for r := 0; r < rows; r++ {
		for j := range vals {
			switch rng.Intn(5) {
			case 0: // clustered duplicate: tiny value alphabet
				vals[j] = float64(rng.Intn(4)) * 25
			case 1: // exact boundary-ish lattice values
				vals[j] = float64(rng.Intn(11)) * 10
			case 2:
				if withNaN && rng.Intn(8) == 0 {
					vals[j] = math.NaN()
				} else {
					vals[j] = rng.Float64() * 100
				}
			default:
				vals[j] = rng.Float64() * 100
			}
		}
		b.Add(vals...)
	}
	return b.Build()
}

// boundaryRects augments randomRects with rects whose edges sit exactly
// on cell boundaries and on data values present in the table, including
// degenerate Lo==Hi rects and the empty-domain corner.
func boundaryRects(d int, rng *rand.Rand) []geom.Rect {
	rects := randomRects(8, d, rng)
	exact := func(lo, hi float64) geom.Rect {
		r := make(geom.Rect, d)
		for j := range r {
			r[j] = geom.Interval{Lo: lo, Hi: hi}
		}
		return r
	}
	rects = append(rects,
		exact(0, 0),     // degenerate at domain min
		exact(100, 100), // degenerate at domain max
		exact(25, 75),   // edges on the duplicate-value alphabet
		exact(10, 90),   // edges on the lattice alphabet
		exact(0, 100),   // full domain
		exact(50, 50),   // degenerate interior, likely single/empty cells
	)
	// A rect with one unconstrained dim and one tight dim (zonemap
	// covered in one axis, partial in the other).
	mixed := make(geom.Rect, d)
	for j := range mixed {
		if j == 0 {
			mixed[j] = geom.Interval{Lo: 30, Hi: 30.5}
		} else {
			mixed[j] = geom.Interval{Lo: geom.NormMin, Hi: geom.NormMax}
		}
	}
	return append(rects, mixed)
}

func equalRows(t *testing.T, label string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d: got %d want %d", label, i, got[i], want[i])
		}
	}
}

// equalRowSets compares engine output (deterministic cell-major order)
// against the naive reference (ascending row order) as sets, and also
// asserts the engine emitted no duplicates.
func equalRowSets(t *testing.T, label string, got, want []int) {
	t.Helper()
	sorted := append([]int(nil), got...)
	sort.Ints(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			t.Fatalf("%s: duplicate row %d in result", label, sorted[i])
		}
	}
	equalRows(t, label, sorted, want)
}

// TestColumnarMatchesNaiveReference is the main oracle property: for
// randomized tables and rects, Count / RowsIn agree exactly with the
// naive scan, across worker counts and with scan-buffer reuse.
func TestColumnarMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		d, rows int
		nan     bool
	}{
		{1, 0, false},   // empty table
		{1, 1, false},   // single row
		{2, 3, false},   // fewer rows than cells: mostly empty cells
		{2, 60, false},  // sparse: many single-row cells
		{2, 400, true},  // dense with NaN-poisoned cells
		{3, 250, false}, // 3-dim odometer / run decomposition
		{3, 500, true},
	}
	for ci, tc := range cases {
		tab := randomColumnarTable(tc.d, tc.rows, rng, tc.nan)
		attrs := tab.Schema().Names()
		for _, workers := range []int{1, 4} {
			v, err := NewViewWorkers(tab, attrs, workers)
			if err != nil {
				t.Fatal(err)
			}
			vb := v.WithScanBuffer()
			for ri, rect := range boundaryRects(tc.d, rng) {
				label := fmt.Sprintf("case=%d w=%d rect=%d", ci, workers, ri)
				want := naiveRows(v, rect)
				if got := v.Count(rect); got != len(want) {
					t.Fatalf("%s: Count=%d want %d", label, got, len(want))
				}
				equalRowSets(t, label+" RowsIn", v.RowsIn(rect), want)
				// Scan-buffer path must be bit-identical too.
				if got := vb.Count(rect); got != len(want) {
					t.Fatalf("%s: buffered Count=%d want %d", label, got, len(want))
				}
				equalRowSets(t, label+" buffered RowsIn", vb.RowsIn(rect), want)
			}
		}
	}
}

// TestRowsInAnyMatchesNaiveReference checks the bitmap-OR disjunction
// path: the union over k rects equals the naive MatchesAny scan, with
// rows deduplicated and in ascending order.
func TestRowsInAnyMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range []int{1, 2, 3} {
		tab := randomColumnarTable(d, 300, rng, d == 2)
		attrs := tab.Schema().Names()
		for _, workers := range []int{1, 4} {
			v, err := NewViewWorkers(tab, attrs, workers)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 6; trial++ {
				k := 1 + rng.Intn(4)
				rects := boundaryRects(d, rng)[:k]
				// Overlapping copies stress dedup.
				rects = append(rects, rects[0])
				want := naiveRowsAny(v, rects)
				label := fmt.Sprintf("d=%d w=%d trial=%d", d, workers, trial)
				equalRowSets(t, label, v.RowsInAny(rects), want)
			}
		}
	}
}

// TestColumnarDeterministicAcrossWorkers pins the cross-worker
// bit-identity contract: any worker count yields the same rows in the
// same order.
func TestColumnarDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tab := randomColumnarTable(2, 800, rng, true)
	attrs := tab.Schema().Names()
	ref, err := NewViewWorkers(tab, attrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	rects := boundaryRects(2, rng)
	for _, workers := range []int{2, 3, 8} {
		v, err := NewViewWorkers(tab, attrs, workers)
		if err != nil {
			t.Fatal(err)
		}
		for ri, rect := range rects {
			label := fmt.Sprintf("w=%d rect=%d", workers, ri)
			equalRows(t, label, v.RowsIn(rect), ref.RowsIn(rect))
			if got, want := v.Count(rect), ref.Count(rect); got != want {
				t.Fatalf("%s: Count=%d want %d", label, got, want)
			}
		}
	}
}

// TestLocalViewRetainsOneNormalizedCopy measures, as an exact heap count,
// what a built 4-attribute view keeps beyond its table: the slot-ordered
// slabs (8 B/row/dim) are the only normalized copy of the columns, next
// to the slot->row and row->slot maps (4 + 4 B/row) and the covering
// index (4 B/row/dim) — about 57 B/row. A view that also kept its
// row-ordered columns and a widened copy of the row ids retained 93.
func TestLocalViewRetainsOneNormalizedCopy(t *testing.T) {
	const rows = 200_000
	tab := dataset.GenerateSDSS(rows, 3)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v, err := NewViewWorkers(tab, []string{"rowc", "colc", "ra", "dec"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	perRow := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / rows
	t.Logf("local 4-attribute view retains %d B/row", perRow)
	if perRow > 60 {
		t.Fatalf("local 4-attribute view retains %d B/row, want <= 60", perRow)
	}
}
