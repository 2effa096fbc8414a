package cart

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/explore-by-example/aide/internal/geom"
)

// randomTrainingSet builds n labeled points in d dimensions against a
// random rectangular target, the worst-case shape for split-search ties.
func randomTrainingSet(n, d int, seed int64) ([]geom.Point, []bool) {
	rng := rand.New(rand.NewSource(seed))
	target := make(geom.Rect, d)
	for i := range target {
		lo := rng.Float64() * 70
		target[i] = geom.Interval{Lo: lo, Hi: lo + 10 + rng.Float64()*20}
	}
	points := make([]geom.Point, n)
	labels := make([]bool, n)
	for i := range points {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = rng.Float64() * 100
		}
		points[i] = p
		labels[i] = target.Contains(p)
	}
	return points, labels
}

// labeledGrid builds training data on a lattice where label = inside(rect).
func labeledGrid(n int, rect geom.Rect, seed int64) ([]geom.Point, []bool) {
	rng := rand.New(rand.NewSource(seed))
	d := rect.Dims()
	points := make([]geom.Point, n)
	labels := make([]bool, n)
	for i := 0; i < n; i++ {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = rng.Float64() * 100
		}
		points[i] = p
		labels[i] = rect.Contains(p)
	}
	return points, labels
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, DefaultParams()); err == nil {
		t.Error("empty training set should error")
	}
	if _, err := Train([]geom.Point{{1}}, nil, DefaultParams()); err == nil {
		t.Error("label mismatch should error")
	}
	if _, err := Train([]geom.Point{{}}, []bool{true}, DefaultParams()); err == nil {
		t.Error("zero-dim points should error")
	}
	if _, err := Train([]geom.Point{{1, 2}, {1}}, []bool{true, false}, DefaultParams()); err == nil {
		t.Error("ragged points should error")
	}
}

func TestPureLeaf(t *testing.T) {
	points := []geom.Point{{1, 1}, {2, 2}, {3, 3}}
	tree, err := Train(points, []bool{true, true, true}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() != 0 || tree.NumLeaves() != 1 {
		t.Errorf("pure tree depth=%d leaves=%d", tree.Depth(), tree.NumLeaves())
	}
	if !tree.Predict(geom.Point{50, 50}) {
		t.Error("all-relevant tree should predict relevant everywhere")
	}
}

func TestSimple1DSplit(t *testing.T) {
	// Relevant iff x <= 40 (training values at 10..100 step 10).
	var points []geom.Point
	var labels []bool
	for x := 10.0; x <= 100; x += 10 {
		points = append(points, geom.Point{x})
		labels = append(labels, x <= 40)
	}
	tree, err := Train(points, labels, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Predict(geom.Point{20}) || tree.Predict(geom.Point{80}) {
		t.Error("1-D split misclassifies")
	}
	// Threshold should be the midpoint 45.
	areas := tree.RelevantAreas(geom.NewRect(1))
	if len(areas) != 1 {
		t.Fatalf("areas = %v", areas)
	}
	if areas[0][0].Hi != 45 {
		t.Errorf("split threshold = %v, want 45", areas[0][0].Hi)
	}
}

func TestPaperExampleTree(t *testing.T) {
	// Reconstruct the running example of Figure 2: relevant iff
	// (age <= 20 && 10 < dosage <= 15) or (20 < age <= 40 && dosage <= 10).
	target := []geom.Rect{
		geom.R(0, 20, 10.01, 15),
		geom.R(20.01, 40, 0, 10),
	}
	rng := rand.New(rand.NewSource(42))
	var points []geom.Point
	var labels []bool
	for i := 0; i < 4000; i++ {
		p := geom.Point{rng.Float64() * 40, rng.Float64() * 15}
		points = append(points, p)
		lab := false
		for _, r := range target {
			if r.Contains(p) {
				lab = true
			}
		}
		labels = append(labels, lab)
	}
	tree, err := Train(points, labels, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check the four quadrants of the example.
	cases := []struct {
		p    geom.Point
		want bool
	}{
		{geom.Point{10, 12}, true},   // age<=20, 10<dosage<=15
		{geom.Point{10, 5}, false},   // age<=20, dosage<=10
		{geom.Point{30, 5}, true},    // 20<age<=40, dosage<=10
		{geom.Point{30, 12}, false},  // 20<age<=40, dosage>10
		{geom.Point{39, 9.5}, true},  // inside second area
		{geom.Point{19, 10.5}, true}, // inside first area
	}
	for _, tc := range cases {
		if got := tree.Predict(tc.p); got != tc.want {
			t.Errorf("Predict(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestRelevantAreasPartitionSpace(t *testing.T) {
	rect := geom.R(20, 50, 60, 90)
	points, labels := labeledGrid(2000, rect, 7)
	tree, err := Train(points, labels, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	bounds := geom.NewRect(2)
	rel := tree.RelevantAreas(bounds)
	irr := tree.IrrelevantAreas(bounds)
	if len(rel) == 0 || len(irr) == 0 {
		t.Fatalf("rel=%d irr=%d areas", len(rel), len(irr))
	}
	// Relevant + irrelevant areas partition the bounds: volumes add up
	// and leaf count matches.
	var vol float64
	for _, r := range append(append([]geom.Rect{}, rel...), irr...) {
		vol += r.Volume()
	}
	if diff := vol - bounds.Volume(); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("area volumes sum to %v, want %v", vol, bounds.Volume())
	}
	if len(rel)+len(irr) != tree.NumLeaves() {
		t.Errorf("%d+%d areas != %d leaves", len(rel), len(irr), tree.NumLeaves())
	}
	// Predict agrees with area membership.
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		p := geom.Point{rng.Float64() * 100, rng.Float64() * 100}
		inRel := false
		for _, r := range rel {
			if r.Contains(p) {
				inRel = true
				break
			}
		}
		if got := tree.Predict(p); got != inRel {
			// Boundary points can legitimately fall in two areas; skip
			// exact-boundary cases.
			onBoundary := false
			for _, r := range rel {
				for d := range r {
					if p[d] == r[d].Lo || p[d] == r[d].Hi {
						onBoundary = true
					}
				}
			}
			if !onBoundary {
				t.Errorf("Predict(%v) = %v but area membership = %v", p, got, inRel)
			}
		}
	}
}

func TestMaxDepth(t *testing.T) {
	rect := geom.R(20, 50, 60, 90)
	points, labels := labeledGrid(2000, rect, 9)
	tree, err := Train(points, labels, Params{MaxDepth: 2, MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() > 2 {
		t.Errorf("depth = %d exceeds MaxDepth 2", tree.Depth())
	}
}

func TestMinLeaf(t *testing.T) {
	points := []geom.Point{{1}, {2}, {3}, {4}}
	labels := []bool{true, false, false, false}
	tree, err := Train(points, labels, Params{MinLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The only useful split (<=1.5) leaves one sample on the left, so
	// MinLeaf=2 forbids it: the tree stays a single majority leaf.
	if tree.NumLeaves() != 1 {
		t.Errorf("leaves = %d, want 1", tree.NumLeaves())
	}
	if tree.Predict(geom.Point{1}) {
		t.Error("majority leaf should predict irrelevant")
	}
}

func TestSplitDims(t *testing.T) {
	// Label depends only on dim 0; dim 1 is noise.
	rng := rand.New(rand.NewSource(3))
	var points []geom.Point
	var labels []bool
	for i := 0; i < 500; i++ {
		p := geom.Point{rng.Float64() * 100, rng.Float64() * 100}
		points = append(points, p)
		labels = append(labels, p[0] > 50)
	}
	tree, err := Train(points, labels, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	dims := tree.SplitDims()
	if !dims[0] {
		t.Error("dim 0 should be split on")
	}
	// dim 1 may appear in tiny noise splits near the threshold, but a
	// clean margin dataset should not need it.
	if len(dims) > 2 {
		t.Errorf("SplitDims = %v", dims)
	}
}

func TestPredictDeterministic(t *testing.T) {
	rect := geom.R(10, 30, 10, 30)
	points, labels := labeledGrid(800, rect, 11)
	t1, _ := Train(points, labels, DefaultParams())
	t2, _ := Train(points, labels, DefaultParams())
	if t1.String(nil) != t2.String(nil) {
		t.Error("training is not deterministic")
	}
}

func TestStringRendering(t *testing.T) {
	points := []geom.Point{{10, 1}, {20, 1}, {30, 1}, {40, 1}}
	labels := []bool{true, true, false, false}
	tree, _ := Train(points, labels, Params{MinLeaf: 1})
	s := tree.String([]string{"age", "dosage"})
	if !contains(s, "age <= 25") {
		t.Errorf("String = %q, want split on age <= 25", s)
	}
	if !contains(s, "relevant") || !contains(s, "irrelevant") {
		t.Errorf("String = %q missing labels", s)
	}
	// Without names, dims render as x0...
	s = tree.String(nil)
	if !contains(s, "x0 <= 25") {
		t.Errorf("String(nil) = %q", s)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestMergeAreasAdjacent(t *testing.T) {
	rects := []geom.Rect{
		geom.R(0, 10, 0, 10),
		geom.R(10, 20, 0, 10),
	}
	got := MergeAreas(rects)
	if len(got) != 1 || !got[0].Equal(geom.R(0, 20, 0, 10)) {
		t.Errorf("MergeAreas = %v", got)
	}
}

func TestMergeAreasGapAndMismatch(t *testing.T) {
	rects := []geom.Rect{
		geom.R(0, 10, 0, 10),
		geom.R(20, 30, 0, 10), // gap in dim 0
		geom.R(0, 10, 20, 30), // differs in dim 1
	}
	got := MergeAreas(rects)
	if len(got) != 3 {
		t.Errorf("MergeAreas merged disjoint rects: %v", got)
	}
}

func TestMergeAreasChain(t *testing.T) {
	// Three rects in a row merge into one via repeated passes.
	rects := []geom.Rect{
		geom.R(0, 10, 0, 10),
		geom.R(20, 30, 0, 10),
		geom.R(10, 20, 0, 10),
	}
	got := MergeAreas(rects)
	if len(got) != 1 || !got[0].Equal(geom.R(0, 30, 0, 10)) {
		t.Errorf("MergeAreas chain = %v", got)
	}
}

func TestMergeAreasIdentical(t *testing.T) {
	rects := []geom.Rect{geom.R(0, 10), geom.R(0, 10)}
	got := MergeAreas(rects)
	if len(got) != 1 {
		t.Errorf("identical rects should merge: %v", got)
	}
}

// Property: training accuracy on separable rectangular concepts is
// perfect with MinLeaf=1 (a fully grown tree can always shatter the
// training set when no two identical points have different labels).
func TestQuickTrainingAccuracy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(3)
		rect := make(geom.Rect, d)
		for i := range rect {
			lo := rng.Float64() * 80
			rect[i] = geom.Interval{Lo: lo, Hi: lo + 5 + rng.Float64()*15}
		}
		n := 50 + rng.Intn(200)
		points := make([]geom.Point, n)
		labels := make([]bool, n)
		for i := range points {
			p := make(geom.Point, d)
			for j := range p {
				p[j] = rng.Float64() * 100
			}
			points[i] = p
			labels[i] = rect.Contains(p)
		}
		tree, err := Train(points, labels, Params{MinLeaf: 1})
		if err != nil {
			return false
		}
		for i := range points {
			if tree.Predict(points[i]) != labels[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: MergeAreas preserves the union volume.
func TestQuickMergePreservesUnion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		var rects []geom.Rect
		for i := 0; i < n; i++ {
			lo0 := float64(rng.Intn(5)) * 10
			lo1 := float64(rng.Intn(5)) * 10
			rects = append(rects, geom.R(lo0, lo0+10, lo1, lo1+10))
		}
		before := geom.UnionVolume(rects)
		after := geom.UnionVolume(MergeAreas(rects))
		diff := before - after
		return diff < 1e-6 && diff > -1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGini(t *testing.T) {
	if gini(0, 0) != 0 {
		t.Error("gini(0,0) should be 0")
	}
	if gini(5, 10) != 0.5 {
		t.Errorf("gini(5,10) = %v, want 0.5", gini(5, 10))
	}
	if gini(10, 10) != 0 {
		t.Error("pure node gini should be 0")
	}
}

// TestTrainScratchReuse trains twice on the same tree-sized inputs and
// asserts repeatability: the hoisted scratch buffers must not leak state
// between dimensions or trainings.
func TestTrainScratchReuse(t *testing.T) {
	points, labels := randomTrainingSet(800, 3, 42)
	params := DefaultParams()
	first, err := Train(points, labels, params)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Train(points, labels, params)
	if err != nil {
		t.Fatal(err)
	}
	if first.String(nil) != second.String(nil) {
		t.Fatal("repeated training produced different trees")
	}
}
