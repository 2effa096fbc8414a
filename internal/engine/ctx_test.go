package engine

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/geom"
)

// TestWithContextUncancelledIdentical: binding a live context must not
// change any scan result.
func TestWithContextUncancelledIdentical(t *testing.T) {
	tab := dataset.GenerateUniform(20_000, 2, 5)
	v, err := NewView(tab, []string{"a0", "a1"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cv := v.WithContext(ctx)
	rect := geom.R(10, 20, 60, 70)
	if a, b := v.Count(rect), cv.Count(rect); a != b {
		t.Fatalf("Count: %d vs %d with ctx", a, b)
	}
	ra, rb := v.RowsIn(rect), cv.RowsIn(rect)
	if len(ra) != len(rb) {
		t.Fatalf("RowsIn: %d vs %d rows", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("RowsIn row %d: %d vs %d", i, ra[i], rb[i])
		}
	}
	sa := v.SampleRect(rect, 25, rand.New(rand.NewSource(9)))
	sb := cv.SampleRect(rect, 25, rand.New(rand.NewSource(9)))
	if len(sa) != len(sb) {
		t.Fatalf("SampleRect: %d vs %d rows", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("SampleRect row %d: %d vs %d", i, sa[i], sb[i])
		}
	}
}

// TestWithContextCancelledScanReturnsEarly: a scan under a cancelled
// context returns quickly, unsharded and sharded, and answers either
// empty (the walk noticed) or in full (it finished first) — never a
// torn result; the caller discards it after checking ctx.Err().
func TestWithContextCancelledScanReturnsEarly(t *testing.T) {
	tab := dataset.GenerateUniform(50_000, 2, 5)
	v, err := NewView(tab, []string{"a0", "a1"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cv := v.WithContext(ctx)
	rect := geom.R(0, 0, 100, 100)
	// A boundary-heavy rect makes the walk long enough to notice.
	ragged := []geom.Rect{rect, geom.R(0.5, 99.5, 0.5, 99.5)}
	for _, view := range []*View{cv, cv.WithShards(ShardOptions{Shards: 2})} {
		for _, r := range ragged {
			if n, want := view.Count(r), v.Count(r); n != 0 && n != want {
				t.Fatalf("cancelled Count(%v) = %d, want 0 or %d", r, n, want)
			}
			if rows, want := view.RowsIn(r), v.RowsIn(r); rows != nil && !slices.Equal(rows, want) {
				t.Fatalf("cancelled RowsIn(%v) answered %d rows, want none or all %d", r, len(rows), len(want))
			}
		}
		if rows, want := view.RowsInAny(ragged), v.RowsInAny(ragged); rows != nil && !slices.Equal(rows, want) {
			t.Fatalf("cancelled RowsInAny answered %d rows, want none or all %d", len(rows), len(want))
		}
		_ = view.SampleRect(rect, 10, rand.New(rand.NewSource(1)))
	}
	if ctx.Err() == nil {
		t.Fatal("ctx should be cancelled")
	}
	// A nil rebind restores the never-cancelled default.
	nv := cv.WithContext(nil)
	if got, want := nv.Count(rect), v.Count(rect); got != want {
		t.Fatalf("Count after nil rebind = %d, want %d", got, want)
	}
}
