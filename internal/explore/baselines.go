package explore

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/explore-by-example/aide/internal/cart"
	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/grid"
)

// baseline holds the state shared by the Random and Random-Grid
// exploration baselines of Section 6.2: a labeled set and a decision
// tree, but none of AIDE's strategic sample selection.
type baseline struct {
	view    *engine.View
	oracle  Oracle
	rng     *rand.Rand
	perIter int

	labelOf map[int]bool
	rows    []int
	points  []geom.Point
	labels  []bool
	nPos    int

	set   cart.Set // the labelled points, presorted across retrains
	tree  *cart.Tree
	areas []geom.Rect
	iter  int
}

func newBaseline(view *engine.View, oracle Oracle, perIter int, seed int64) (*baseline, error) {
	if view == nil || oracle == nil {
		return nil, fmt.Errorf("explore: nil view or oracle")
	}
	if perIter <= 0 {
		perIter = 20
	}
	return &baseline{
		view:    view,
		oracle:  oracle,
		rng:     rand.New(rand.NewSource(seed)),
		perIter: perIter,
		labelOf: make(map[int]bool),
	}, nil
}

func (b *baseline) label(row int, res *IterationResult) bool {
	if lab, ok := b.labelOf[row]; ok {
		return lab
	}
	lab := b.oracle.Label(b.view, row)
	b.labelOf[row] = lab
	b.rows = append(b.rows, row)
	b.points = append(b.points, b.view.NormPoint(row))
	b.labels = append(b.labels, lab)
	if lab {
		b.nPos++
		res.NewRelevant++
	}
	res.NewSamples++
	res.PhaseSamples[PhaseDiscovery]++
	return lab
}

func (b *baseline) retrain(res *IterationResult) error {
	if b.nPos > 0 && b.nPos < len(b.rows) {
		tree, err := b.set.Train(context.Background(), b.points, b.labels, nil, cart.DefaultParams())
		if err != nil {
			return err
		}
		b.tree = tree
		b.areas = tree.RelevantAreas(geom.NewRect(b.view.Dims()))
	} else {
		b.tree = nil
		b.areas = nil
	}
	res.TotalLabeled = len(b.rows)
	res.RelevantAreas = len(b.areas)
	return nil
}

// LabeledCount implements Explorer.
func (b *baseline) LabeledCount() int { return len(b.rows) }

// RelevantAreas implements Explorer.
func (b *baseline) RelevantAreas() []geom.Rect {
	if len(b.areas) == 0 {
		return nil
	}
	return cart.MergeAreas(b.areas)
}

// FinalQuery implements Explorer.
func (b *baseline) FinalQuery() engine.Query {
	norm := b.view.Normalizer()
	merged := b.RelevantAreas()
	areas := make([]geom.Rect, len(merged))
	for i, a := range merged {
		areas[i] = norm.ToRawRect(a)
	}
	return engine.Query{
		Table:   b.view.Table().Name(),
		Attrs:   b.view.Attrs(),
		Areas:   areas,
		Domains: norm.ToRawRect(geom.NewRect(b.view.Dims())),
	}
}

// Random selects SamplesPerIteration uniformly random tuples each
// iteration, presents them for feedback, and trains a classifier — no
// steering at all (Section 6.2's Random baseline).
type Random struct {
	baseline
}

// NewRandom builds the Random baseline explorer.
func NewRandom(view *engine.View, oracle Oracle, perIter int, seed int64) (*Random, error) {
	b, err := newBaseline(view, oracle, perIter, seed)
	if err != nil {
		return nil, err
	}
	return &Random{baseline: *b}, nil
}

// RunIteration implements Explorer.
func (r *Random) RunIteration() (*IterationResult, error) {
	start := time.Now()
	res := &IterationResult{Iteration: r.iter}
	r.iter++
	// Oversample to compensate for rows that were already labeled.
	for _, row := range r.view.SampleAll(r.perIter*3, r.rng) {
		if res.NewSamples >= r.perIter {
			break
		}
		r.label(row, res)
	}
	if err := r.retrain(res); err != nil {
		return nil, err
	}
	res.Duration = time.Since(start)
	return res, nil
}

// RandomGrid is the Random-Grid baseline of Section 6.2: like Random, but
// samples are drawn one per grid cell (random cell order, random object
// near the cell center), which spreads them across the exploration space.
// When a level's cells are exhausted it descends to the next level.
type RandomGrid struct {
	baseline
	g        *grid.Grid
	frontier []grid.Cell
	level    int
	maxLevel int
	gamma    float64
}

// NewRandomGrid builds the Random-Grid baseline explorer. beta0 is the
// level-0 granularity (the paper uses the same grid as AIDE).
func NewRandomGrid(view *engine.View, oracle Oracle, perIter, beta0 int, seed int64) (*RandomGrid, error) {
	b, err := newBaseline(view, oracle, perIter, seed)
	if err != nil {
		return nil, err
	}
	if beta0 <= 0 {
		beta0 = 4
	}
	g, err := grid.New(view.Dims(), beta0)
	if err != nil {
		return nil, err
	}
	rg := &RandomGrid{baseline: *b, g: g, maxLevel: 6}
	rg.reload()
	return rg, nil
}

// reload fills the frontier with the cells of the current level in
// random order.
func (r *RandomGrid) reload() {
	r.frontier = r.g.CellsAt(r.level)
	r.rng.Shuffle(len(r.frontier), func(i, j int) {
		r.frontier[i], r.frontier[j] = r.frontier[j], r.frontier[i]
	})
	r.gamma = 0.7 * r.g.Width(r.level) / 2
}

// RunIteration implements Explorer.
func (r *RandomGrid) RunIteration() (*IterationResult, error) {
	start := time.Now()
	res := &IterationResult{Iteration: r.iter}
	r.iter++
	attempts := 0
	maxAttempts := r.perIter * 50
	for res.NewSamples < r.perIter && attempts < maxAttempts {
		attempts++
		if len(r.frontier) == 0 {
			if r.level >= r.maxLevel {
				break
			}
			r.level++
			r.reload()
		}
		cell := r.frontier[0]
		r.frontier = r.frontier[1:]
		row := r.view.SampleOneNearCenter(r.g.Center(cell), r.gamma, r.rng)
		if row < 0 {
			continue
		}
		r.label(row, res)
	}
	if err := r.retrain(res); err != nil {
		return nil, err
	}
	res.Duration = time.Since(start)
	return res, nil
}

var (
	_ Explorer = (*Session)(nil)
	_ Explorer = (*Random)(nil)
	_ Explorer = (*RandomGrid)(nil)
)
