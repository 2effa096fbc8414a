package eval

import (
	"testing"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/explore"
	"github.com/explore-by-example/aide/internal/obs"
)

// TestSessionSortsEachLabelOnce runs the sdss-grid golden session and
// checks that CART sorted each labelled row once per dimension over the
// whole session: however many retrains there were, the cart.keys_sorted
// delta is exactly dims × labelled rows.
func TestSessionSortsEachLabelOnce(t *testing.T) {
	sdss := dataset.GenerateSDSS(20000, 7)
	v, err := engine.NewView(sdss, []string{"rowc", "colc"})
	if err != nil {
		t.Fatal(err)
	}
	target, err := GenerateTarget(v, TargetSpec{NumAreas: 2, Size: Large}, 11)
	if err != nil {
		t.Fatal(err)
	}
	opts := explore.DefaultOptions()
	opts.Seed = 42
	opts.Discovery = explore.DiscoveryGrid
	sorted := obs.GetCounter("cart.keys_sorted")
	before := sorted.Value()
	labeled, _, s := runGolden(t, v, target, opts, 40)
	got := sorted.Value() - before
	t.Logf("%d iterations, %d labelled rows, %d keys sorted", s.Stats().Iterations, labeled, got)
	if want := int64(v.Dims() * labeled); got != want {
		t.Errorf("keys sorted = %d, want dims × labelled rows = %d", got, want)
	}
}
