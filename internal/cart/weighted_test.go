package cart

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/explore-by-example/aide/internal/geom"
)

// gridPoints builds a labeled 2-D training set: points inside the target
// rect are positive.
func gridPoints(n int, seed int64, target geom.Rect) ([]geom.Point, []bool) {
	rng := rand.New(rand.NewSource(seed))
	points := make([]geom.Point, n)
	labels := make([]bool, n)
	for i := range points {
		p := geom.Point{rng.Float64() * 100, rng.Float64() * 100}
		points[i] = p
		labels[i] = target.Contains(p)
	}
	return points, labels
}

func TestTrainWeightedNilDelegates(t *testing.T) {
	points, labels := gridPoints(400, 1, geom.R(20, 60, 30, 70))
	params := DefaultParams()
	plain, err := Train(points, labels, params)
	if err != nil {
		t.Fatal(err)
	}
	viaNil, err := TrainWeighted(points, labels, nil, params)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.RelevantAreas(geom.R(0, 100, 0, 100)), viaNil.RelevantAreas(geom.R(0, 100, 0, 100))) {
		t.Error("nil-weight TrainWeighted differs from Train")
	}
}

func TestTrainWeightedUniformMatchesUnweighted(t *testing.T) {
	points, labels := gridPoints(400, 2, geom.R(20, 60, 30, 70))
	params := DefaultParams()
	plain, err := Train(points, labels, params)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, len(points))
	for i := range w {
		w[i] = 1
	}
	weighted, err := TrainWeighted(points, labels, w, params)
	if err != nil {
		t.Fatal(err)
	}
	bounds := geom.R(0, 100, 0, 100)
	if !reflect.DeepEqual(plain.RelevantAreas(bounds), weighted.RelevantAreas(bounds)) {
		t.Error("uniform weights produced different areas than unweighted training")
	}
}

func TestTrainWeightedDownweightsConflicts(t *testing.T) {
	// A positive blob with a few mislabeled points inside it: with full
	// weight the noise carves the area, with low weight it is outvoted.
	var points []geom.Point
	var labels []bool
	var weights []float64
	for x := 0.5; x < 10; x++ {
		for y := 0.5; y < 10; y++ {
			p := geom.Point{x * 10, y * 10}
			inside := x >= 2 && x < 8 && y >= 2 && y < 8
			points = append(points, p)
			labels = append(labels, inside)
			weights = append(weights, 1)
		}
	}
	// Flip two interior points to negative with low confidence.
	flipped := 0
	for i, p := range points {
		if flipped < 2 && p[0] == 45 && labels[i] {
			labels[i] = false
			weights[i] = 0.51
			flipped++
		}
	}
	params := DefaultParams()
	params.MinLeaf = 1
	tr, err := TrainWeighted(points, labels, weights, params)
	if err != nil {
		t.Fatal(err)
	}
	// The down-weighted contradictions should not flip their leaves.
	if !tr.Predict(geom.Point{45, 45}) {
		t.Error("down-weighted negative flipped an interior leaf")
	}
}

func TestTrainWeightedRejectsBadWeights(t *testing.T) {
	points, labels := gridPoints(50, 3, geom.R(20, 60, 30, 70))
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		weights := make([]float64, len(points))
		for i := range weights {
			weights[i] = 1
		}
		weights[7] = w
		if _, err := TrainWeighted(points, labels, weights, DefaultParams()); err == nil {
			t.Errorf("weight %v accepted", w)
		}
	}
	if _, err := TrainWeighted(points, labels, []float64{1, 2}, DefaultParams()); err == nil {
		t.Error("length-mismatched weights accepted")
	}
}

func TestMaxNodesCap(t *testing.T) {
	// Checkerboard labels force a deep tree without a cap.
	points, labels := gridPoints(2000, 4, geom.R(10, 30, 10, 30))
	for i, p := range points {
		labels[i] = (int(p[0]/10)+int(p[1]/10))%2 == 0
	}
	for _, maxNodes := range []int{3, 5, 9, 31} {
		params := DefaultParams()
		params.MaxNodes = maxNodes
		tr, err := Train(points, labels, params)
		if err != nil {
			t.Fatal(err)
		}
		if n := tr.NumNodes(); n > maxNodes {
			t.Errorf("MaxNodes=%d: tree has %d nodes", maxNodes, n)
		}
		if !tr.Capped() {
			t.Errorf("MaxNodes=%d: checkerboard tree not marked capped", maxNodes)
		}
	}
	// Without a cap the same data trains a bigger, uncapped tree.
	free, err := Train(points, labels, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if free.Capped() {
		t.Error("uncapped training marked capped")
	}
	if free.NumNodes() <= 31 {
		t.Errorf("checkerboard tree only has %d nodes; cap test is vacuous", free.NumNodes())
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{MaxDepth: -1},
		{MinLeaf: -1},
		{MinGain: -0.1},
		{MinGain: math.NaN()},
		{MaxNodes: -1},
	}
	for _, p := range bad {
		if err := p.Validate(); !errors.Is(err, ErrBadParams) {
			t.Errorf("params %+v: err = %v, want ErrBadParams", p, err)
		}
		if _, err := Train([]geom.Point{{1, 1}, {2, 2}}, []bool{true, false}, p); err == nil {
			t.Errorf("Train accepted invalid params %+v", p)
		}
	}
	if err := (Params{}).Validate(); err != nil {
		t.Errorf("zero params rejected: %v", err)
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params rejected: %v", err)
	}
}
