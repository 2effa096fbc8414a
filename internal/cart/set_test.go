package cart

import (
	"context"
	"math"
	"testing"

	"github.com/explore-by-example/aide/internal/geom"
)

// byteSource deals decisions out of fuzz input, reading zeros once the
// input is spent.
type byteSource struct{ data []byte }

func (b *byteSource) next() byte {
	if len(b.data) == 0 {
		return 0
	}
	v := b.data[0]
	b.data = b.data[1:]
	return v
}

func (b *byteSource) empty() bool { return len(b.data) == 0 }

// hasTies reports whether any dimension repeats a value (−0 and +0
// count as equal).
func hasTies(points []geom.Point) bool {
	for d := range points[0] {
		seen := make(map[float64]bool, len(points))
		for _, p := range points {
			v := p[d]
			if v == 0 {
				v = 0 // fold −0 into +0
			}
			if seen[v] {
				return true
			}
			seen[v] = true
		}
	}
	return false
}

// checkAgainstReference compares a Set-trained tree with the reference
// induction: bit-identical to the unstable-sort reference when the tree
// is unweighted or the input has no ties, and to the (value, index)
// sorted reference always.
func checkAgainstReference(t *testing.T, got *Tree, points []geom.Point, labels []bool, weights []float64, params Params) {
	t.Helper()
	want, err := referenceTrain(points, labels, weights, params, true)
	if err != nil {
		t.Fatal(err)
	}
	if d := treeDiff(got, want); d != "" {
		t.Fatalf("n=%d weighted=%v: tree differs from the (value, index) reference: %s", len(points), weights != nil, d)
	}
	if weights == nil || !hasTies(points) {
		want, err := referenceTrain(points, labels, weights, params, false)
		if err != nil {
			t.Fatal(err)
		}
		if d := treeDiff(got, want); d != "" {
			t.Fatalf("n=%d weighted=%v: tree differs from the value-sorted reference: %s", len(points), weights != nil, d)
		}
	}
}

// FuzzTrainIncremental grows one Set by random batches of 1–40 rows —
// with ±0, repeated values and repeated rows — flipping labels and
// redrawing weights between retrains, and checks every retrain against
// the reference induction and a one-shot train, and that the Set sorted
// only the rows each batch added.
func FuzzTrainIncremental(f *testing.F) {
	f.Add([]byte("\x03\x02\x00\x01\x27\x11\x05\x40\x80\x90\xa0\x13\x07\x22\x31\x08\x09\x10\xff\x44"))
	f.Add([]byte("\x01\x00\x00\x00\x27\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10\x11\x12\x13\x14"))
	f.Add([]byte("\x02\x81\x43\x12\x20\x33\x55\x77\x99\xbb\xdd\xff\x0e\x1c\x2a\x38\x46\x54\x62\x70\x7e\x8c\x9a\xa8\xb6\xc4\xd2"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSource{data: data}
		dims := 1 + int(src.next()%4)
		params := DefaultParams()
		params.MinLeaf = 1 + int(src.next()%3)
		params.MaxDepth = int(src.next() % 8)
		if m := src.next(); m%2 == 1 {
			params.MaxNodes = 3 + int(m%29)
		}
		var (
			set     Set
			points  []geom.Point
			labels  []bool
			weights []float64
		)
		for batch := 0; batch < 12 && (batch == 0 || !src.empty()); batch++ {
			add := 1 + int(src.next()%40)
			for i := 0; i < add; i++ {
				p := make(geom.Point, dims)
				switch c := src.next(); {
				case c%16 == 0 && len(points) > 0: // a repeated row
					copy(p, points[int(c)%len(points)])
				default:
					for d := range p {
						switch v := src.next(); {
						case v%11 == 0:
							p[d] = math.Copysign(0, -1)
						case v%11 == 1:
							p[d] = 0
						case v%11 == 2 && len(points) > 0: // a repeated value
							p[d] = points[int(v)%len(points)][d]
						default:
							p[d] = float64(v) * 0.4
						}
					}
				}
				points = append(points, p)
				labels = append(labels, src.next()%3 == 0)
			}
			// Flip a few earlier labels in place, as the conflict ledger
			// does, and redraw the weights (nil half the time).
			for flips := int(src.next() % 4); flips > 0; flips-- {
				i := int(src.next()) % len(labels)
				labels[i] = !labels[i]
			}
			weights = nil
			if src.next()%2 == 1 {
				weights = make([]float64, len(points))
				for i := range weights {
					weights[i] = float64(1+src.next()%8) / 8
				}
			}

			sortedBefore := obsKeysSorted.Value()
			got, err := set.Train(context.Background(), points, labels, weights, params)
			if err != nil {
				t.Fatal(err)
			}
			if set.n != len(points) {
				t.Fatalf("set absorbed %d rows, want %d", set.n, len(points))
			}
			if sorted := obsKeysSorted.Value() - sortedBefore; sorted != int64(dims*add) {
				t.Fatalf("retrain sorted %d keys, want %d (dims × rows added)", sorted, dims*add)
			}
			checkAgainstReference(t, got, points, labels, weights, params)
			oneShot, err := TrainWeighted(points, labels, weights, params)
			if err != nil {
				t.Fatal(err)
			}
			if d := treeDiff(got, oneShot); d != "" {
				t.Fatalf("incremental tree differs from one-shot: %s", d)
			}
		}
	})
}

// TestSetMatchesReference grows session-shaped 4-D training sets 20 rows
// per retrain and checks every retrain's tree against the reference
// induction.
func TestSetMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		points, labels := randomTrainingSet(800, 4, seed)
		params := DefaultParams()
		var set Set
		for n := 20; n <= len(points); n += 20 {
			got, err := set.Train(context.Background(), points[:n], labels[:n], nil, params)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, got, points[:n], labels[:n], nil, params)
		}
	}
}

// TestSetRejectsShrinkAndReshape checks the Set refuses inputs that
// cannot extend what it absorbed.
func TestSetRejectsShrinkAndReshape(t *testing.T) {
	points, labels := randomTrainingSet(60, 2, 3)
	var set Set
	if _, err := set.Train(context.Background(), points, labels, nil, DefaultParams()); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Train(context.Background(), points[:50], labels[:50], nil, DefaultParams()); err == nil {
		t.Error("fewer points than absorbed: want error")
	}
	p3, l3 := randomTrainingSet(70, 3, 3)
	if _, err := set.Train(context.Background(), p3, l3, nil, DefaultParams()); err == nil {
		t.Error("changed dimensionality: want error")
	}
	if set.n != 60 {
		t.Errorf("rejected calls changed the set: %d rows absorbed", set.n)
	}
}

// TestSetOrdersNaNLast checks the order a Set keeps: ascending value,
// −0 = +0 tied by row index, NaN last.
func TestSetOrdersNaNLast(t *testing.T) {
	nan := math.NaN()
	negZero := math.Copysign(0, -1)
	var set Set
	var points []geom.Point
	var labels []bool
	for _, batch := range [][]float64{{3, nan, 0}, {negZero, -1, nan, 2}} {
		for _, v := range batch {
			points = append(points, geom.Point{v})
			labels = append(labels, v > 1)
		}
		if _, err := set.Train(context.Background(), points, labels, nil, DefaultParams()); err != nil {
			t.Fatal(err)
		}
	}
	var rows []int
	for _, e := range set.sorted[0] {
		rows = append(rows, e.row)
	}
	want := []int{4, 2, 3, 6, 0, 1, 5} // −1, 0, −0, 2, 3, NaN, NaN
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("order = %v, want %v", rows, want)
		}
	}
}
