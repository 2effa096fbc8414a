package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/geom"
)

// This file holds the oracle tests for the columnar grid engine: every
// pruned / bitmap fast path of Count, RowsIn and RowsInAny — unsharded,
// on 1, 2 and 4 local shards, and on a view whose shards a loopback
// shardrpc worker serves — must return exactly the rows, in exactly the
// order, of the per-row reference scan (scanRect, itself held to a naive
// Contains scan), and move the view's Stats as the reference walk says.
// The tables are engineered to hit empty cells, single-row cells,
// duplicate-value cells, NaN-poisoned cells and rect edges that land
// exactly on cell boundaries or data values.

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
	id := g.cellOf(v, row)
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

// LoopbackRemoteView returns a NewRemoteView of v whose shards a
// shardrpc worker serves over a unix socket. loopback_test.go sets it:
// shardrpc imports this package, so only the external test package can
// import it.
var LoopbackRemoteView func(tb testing.TB, v *View, shards int) *View

type namedView struct {
	name string
	v    *View
}

// queryViews returns the views every reference test queries: v itself,
// its 1-, 2- and 4-shard versions, and a 2-shard NewRemoteView of it
// served by a loopback shardrpc worker.
func queryViews(tb testing.TB, v *View) []namedView {
	out := []namedView{{"unsharded", v}}
	for _, n := range []int{1, 2, 4} {
		out = append(out, namedView{fmt.Sprintf("shards=%d", n), v.WithShards(ShardOptions{Shards: n})})
	}
	return append(out, namedView{"remote", LoopbackRemoteView(tb, v, 2)})
}

// scanRows is the reference for RowsIn: scanRect's rows, in its
// row-major cell order.
func scanRows(v *View, rect geom.Rect) []int {
	var out []int
	v.scanRect(rect, func(r int) bool { out = append(out, r); return true })
	return out
}

// refExamined is the examined-row count a query for rect must add to the
// view's Stats: the rows of every cell scanRect's walk visits that
// neither geometry nor the cell's zonemap decides.
func refExamined(v *View, rect geom.Rect) int64 {
	if !v.validRect(rect) {
		return 0
	}
	var n int64
	v.grid.visitCells(rect, func(id int32, rows []int32, full bool) bool {
		if !full && v.grid.zoneClassify(rect, id) == zonePartial {
			n += int64(len(rows))
		}
		return true
	})
	return n
}

// checkQueries runs Count and RowsIn for rect and RowsInAny for rects on
// every view and holds each call to the reference on base: the same rows
// in the same order (slot order, each row once, for the disjunction),
// one Stats query, and refExamined's examined rows.
func checkQueries(t *testing.T, label string, base *View, views []namedView, rect geom.Rect, rects []geom.Rect) {
	t.Helper()
	// The naive scan has no notion of a malformed rect, which matches
	// nothing: it only checks scanRect on well-formed ones.
	want := scanRows(base, rect)
	if base.validRect(rect) {
		equalRowSets(t, label+" scanRect", want, naiveRows(base, rect))
	}
	wantEx := refExamined(base, rect)
	var anyWant []int
	var anyEx int64
	var valid []geom.Rect
	seen := map[int]bool{}
	for _, r := range rects {
		if base.validRect(r) {
			valid = append(valid, r)
		}
		anyEx += refExamined(base, r)
		for _, row := range scanRows(base, r) {
			if !seen[row] {
				seen[row] = true
				anyWant = append(anyWant, row)
			}
		}
	}
	slotPos := make([]int32, base.NumRows())
	for s, r := range base.grid.rows {
		slotPos[r] = int32(s)
	}
	slices.SortFunc(anyWant, func(a, b int) int { return int(slotPos[a] - slotPos[b]) })
	equalRowSets(t, label+" scanRect union", anyWant, naiveRowsAny(base, valid))
	for _, nv := range views {
		l := label + " " + nv.name
		call := func(what string, wantEx int64, query func()) {
			t.Helper()
			q0, e0 := nv.v.Stats().Snapshot()
			query()
			q1, e1 := nv.v.Stats().Snapshot()
			if q1-q0 != 1 || e1-e0 != wantEx {
				t.Fatalf("%s %s: Stats moved by %d queries and %d examined rows, want 1 and %d", l, what, q1-q0, e1-e0, wantEx)
			}
		}
		var count int
		var rows, anyRows []int
		call("Count", wantEx, func() { count = nv.v.Count(rect) })
		call("RowsIn", wantEx, func() { rows = nv.v.RowsIn(rect) })
		call("RowsInAny", anyEx, func() { anyRows = nv.v.RowsInAny(rects) })
		if count != len(want) {
			t.Fatalf("%s: Count=%d want %d", l, count, len(want))
		}
		equalRows(t, l+" RowsIn", rows, want)
		equalRows(t, l+" RowsInAny", anyRows, anyWant)
	}
}

// malformedRects are rects every query answers empty: a NaN bound and an
// inverted interval.
func malformedRects(d int) []geom.Rect {
	nan, inverted := geom.NewRect(d), geom.NewRect(d)
	nan[0].Lo = math.NaN()
	inverted[d-1] = geom.Interval{Lo: 60, Hi: 40}
	return []geom.Rect{nan, inverted}
}

// TestColumnarMatchesNaiveReference is the main oracle property: for
// randomized tables and rects, Count / RowsIn agree exactly with the
// reference scan on every view of queryViews. Rect pairs also run as
// two-rect disjunctions. The SDSS case carries the rect sets that once
// checked scan worker counts and scan-buffer reuse.
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
		{3, 250, false}, // 3-dim odometer / walk decomposition
		{3, 500, true},
	}
	for ci, tc := range cases {
		tab := randomColumnarTable(tc.d, tc.rows, rng, tc.nan)
		v, err := NewView(tab, tab.Schema().Names())
		if err != nil {
			t.Fatal(err)
		}
		views := queryViews(t, v)
		rects := append(boundaryRects(tc.d, rng), malformedRects(tc.d)...)
		for ri, rect := range rects {
			checkQueries(t, fmt.Sprintf("case=%d rect=%d", ci, ri), v, views, rect, []geom.Rect{rect, rects[(ri+1)%len(rects)]})
		}
	}
	v, err := NewView(dataset.GenerateSDSS(20_000, 21), []string{"rowc", "colc"})
	if err != nil {
		t.Fatal(err)
	}
	views := queryViews(t, v)
	rects := append(randomRects(40, 2, rand.New(rand.NewSource(11))), randomRects(80, 2, rand.New(rand.NewSource(17)))...)
	for ri, rect := range rects {
		checkQueries(t, fmt.Sprintf("sdss rect=%d", ri), v, views, rect, []geom.Rect{rect, rects[(ri+1)%len(rects)]})
	}
}

// TestRowsInAnyMatchesNaiveReference checks the bitmap-OR disjunction
// path on every view of queryViews: the union over k rects — duplicates
// and malformed disjuncts included — equals the reference, each row once
// and in slot order.
func TestRowsInAnyMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range []int{1, 2, 3} {
		tab := randomColumnarTable(d, 300, rng, d == 2)
		v, err := NewView(tab, tab.Schema().Names())
		if err != nil {
			t.Fatal(err)
		}
		views := queryViews(t, v)
		for trial := 0; trial < 6; trial++ {
			k := 1 + rng.Intn(4)
			rects := boundaryRects(d, rng)[:k]
			// Overlapping copies stress dedup; a malformed disjunct adds
			// nothing.
			rects = append(rects, rects[0], malformedRects(d)[trial%2])
			checkQueries(t, fmt.Sprintf("d=%d trial=%d", d, trial), v, views, rects[0], rects)
		}
		checkQueries(t, fmt.Sprintf("d=%d no rects", d), v, views, geom.NewRect(d), nil)
	}
}

// TestColumnarDeterministicAcrossWorkers pins that the index build's
// worker count changes nothing on a table with NaN-poisoned cells: grid
// layout, zonemaps, covering indexes and NaN flags are identical.
func TestColumnarDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tab := randomColumnarTable(2, 800, rng, true)
	attrs := tab.Schema().Names()
	ref, err := NewViewWorkers(tab, attrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		v, err := NewViewWorkers(tab, attrs, workers)
		if err != nil {
			t.Fatal(err)
		}
		sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		g, rg := v.grid, ref.grid
		same := reflect.DeepEqual(v.sorted, ref.sorted) && slices.Equal(v.nanCol, ref.nanCol) &&
			slices.Equal(g.offsets, rg.offsets) && slices.Equal(g.rows, rg.rows) &&
			reflect.DeepEqual(g.zoneMin, rg.zoneMin) && reflect.DeepEqual(g.zoneMax, rg.zoneMax)
		for d := range g.slabs {
			same = same && slices.EqualFunc(g.slabs[d], rg.slabs[d], sameBits) // NaN rows: compare bits
		}
		if !same {
			t.Fatalf("workers=%d: the built index differs from the sequential build", workers)
		}
	}
}

// TestLocalViewRetainsOneNormalizedCopy measures, as an exact heap count,
// what a built 4-attribute view keeps beyond its table: the slot-ordered
// slabs (8 B/row/dim) are the only normalized copy of the columns, next
// to the slot->row map (4 B/row) and the covering index (4 B/row/dim) —
// about 53 B/row. A view that also kept a row->slot map retained 57, and
// one that kept its row-ordered columns and a widened copy of the row
// ids 93.
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
	if perRow > 56 {
		t.Fatalf("local 4-attribute view retains %d B/row, want <= 56", perRow)
	}
}

// TestServedBuildRetainsItsShardOnly measures, as an exact heap count,
// what a shard worker keeps after NewServedShards builds shard 0 of 2
// of a 4-attribute view: the shard's own slot-ordered slabs (8
// B/row/dim) and slot→row map (4 B/row) — 36 bytes per served row, 19.3
// per table row with the zonemaps — and nothing of the table, of the
// shard it does not serve, or of a covering index (27.5 with one).
func TestServedBuildRetainsItsShardOnly(t *testing.T) {
	const rows = 200_000
	tab := dataset.GenerateSDSS(rows, 3)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	served, _, err := NewServedShards(tab, []string{"rowc", "colc", "ra", "dec"}, 2, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(served)
	runtime.KeepAlive(tab)
	perRow := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / rows
	t.Logf("1-of-2 served build retains %.1f B/row", perRow)
	if limit := 21.0; perRow > limit {
		t.Fatalf("1-of-2 served build retains %.1f B/row, want <= %.0f", perRow, limit)
	}
}

// allocatedPerRow returns the bytes f allocates, live or not, per row of
// a rows-row table: runtime.MemStats.TotalAlloc's delta.
func allocatedPerRow(rows int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(rows)
}

// TestBuildsAllocateNoRowOrderedCopy pins, as exact allocation counts at
// 200 k rows × 4 attributes, that neither an all-remote coordinator's
// NewRemoteView nor a worker's 1-of-2 NewServedShards allocates a
// row-ordered normalized copy of the columns, or anything for the shard
// it does not serve: the coordinator allocates its covering index (4
// B/row/dim) and one dimension's sort scratch (20 B/row), 36.2 B/row;
// the worker its served shard's slabs and slot map, 19.8 B/row.
// Allocation totals are not peaks, so NewViewWorkers, whose sorts may
// allocate as much in total as any transient they replace, has no pin
// here.
func TestBuildsAllocateNoRowOrderedCopy(t *testing.T) {
	const rows = 200_000
	attrs := []string{"rowc", "colc", "ra", "dec"}
	tab := dataset.GenerateSDSS(rows, 3)
	remote := allocatedPerRow(rows, func() {
		backends := map[int]ShardBackend{0: &localShard{}, 1: &localShard{}}
		if _, err := NewRemoteView(tab, attrs, ShardOptions{Shards: 2}, backends); err != nil {
			t.Fatal(err)
		}
	})
	served := allocatedPerRow(rows, func() {
		if _, _, err := NewServedShards(tab, attrs, 2, []int{0}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("NewRemoteView allocates %.2f B/row, a 1-of-2 NewServedShards %.2f B/row", remote, served)
	// The coordinator's limit is the index, one dimension's scratch and
	// the 1 B/row it was held to before it built the index.
	remoteLimit := float64(4*len(attrs) + 20 + 1)
	if remote > remoteLimit || served > 21 {
		t.Fatalf("NewRemoteView allocates %.2f B/row (want <= %.0f), a 1-of-2 NewServedShards %.2f B/row (want <= 21)", remote, remoteLimit, served)
	}
}
