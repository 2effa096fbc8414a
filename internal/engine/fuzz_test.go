package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/explore-by-example/aide/internal/geom"
)

// FuzzParseQuery drives the hand-rolled SQL parser with arbitrary input:
// it must never panic, and anything it accepts must render back to SQL
// it accepts again (idempotent round trip).
func FuzzParseQuery(f *testing.F) {
	f.Add("SELECT * FROM t WHERE FALSE;")
	f.Add("SELECT * FROM t WHERE (x >= 1 AND x <= 2);")
	f.Add("SELECT * FROM t WHERE (x >= 1 AND x <= 2) OR (y >= 0 AND y <= 5);")
	f.Add("select * from t where (TRUE)")
	f.Add("SELECT * FROM t WHERE (x >= -1.5e2 AND x <= 1e3)")
	f.Add("")
	f.Add("SELECT")
	f.Add("SELECT * FROM t WHERE (x >= 1 AND x <= ")
	f.Add("SELECT * FROM t WHERE ((((")

	attrs := []string{"x", "y"}
	domains := geom.R(0, 100, 0, 100)
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := ParseQuery(sql, attrs, domains)
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted input round-trips: the rendered SQL parses again to
		// the same areas.
		again, err := ParseQuery(q.SQL(), attrs, domains)
		if err != nil {
			t.Fatalf("accepted %q but rejected own rendering %q: %v", sql, q.SQL(), err)
		}
		if len(again.Areas) != len(q.Areas) {
			t.Fatalf("round trip changed area count: %d vs %d", len(again.Areas), len(q.Areas))
		}
	})
}

// FuzzRectQuery throws arbitrary rect coordinates and table shapes (with
// NaN values) at every view of queryViews — unsharded, 1/2/4 local
// shards, and shards served over a loopback shardrpc worker — and holds
// Count, RowsIn and the rect's self-union to the per-row reference scan:
// rows, their order and the Stats deltas (checkQueries). Malformed rects
// (NaN edges, Lo > Hi) must yield nothing; valid ones — degenerate,
// infinite or out of the domain included — must match exactly.
func FuzzRectQuery(f *testing.F) {
	f.Add(int64(1), uint8(0), 0.0, 100.0, 0.0, 100.0)    // empty table, full domain
	f.Add(int64(2), uint8(1), 50.0, 50.0, 50.0, 50.0)    // single row, degenerate rect
	f.Add(int64(3), uint8(40), 10.0, 90.0, 10.0, 90.0)   // lattice-edge rect
	f.Add(int64(4), uint8(200), 25.0, 75.0, 0.0, 100.0)  // one tight dim, one open
	f.Add(int64(5), uint8(120), -5.0, 105.0, 30.0, 30.5) // out-of-domain edges
	f.Add(int64(6), uint8(90), 60.0, 40.0, 0.0, 100.0)   // inverted: invalid
	f.Add(int64(7), uint8(90), math.NaN(), 100.0, 0.0, 100.0)
	f.Fuzz(func(t *testing.T, seed int64, rows uint8, lo0, hi0, lo1, hi1 float64) {
		rng := rand.New(rand.NewSource(seed))
		tab := randomColumnarTable(2, int(rows), rng, true)
		v, err := NewView(tab, tab.Schema().Names())
		if err != nil {
			t.Fatal(err)
		}
		rect := geom.Rect{{Lo: lo0, Hi: hi0}, {Lo: lo1, Hi: hi1}}
		checkQueries(t, fmt.Sprintf("rect %v", rect), v, queryViews(t, v), rect, []geom.Rect{rect, rect})
	})
}
