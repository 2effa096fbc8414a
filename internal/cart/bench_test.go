package cart

import (
	"context"
	"math/rand"
	"testing"

	"github.com/explore-by-example/aide/internal/geom"
)

// trainingSet builds n labeled points against a two-area target, the
// data shape the session trains on.
func trainingSet(n int, seed int64) ([]geom.Point, []bool) {
	rng := rand.New(rand.NewSource(seed))
	targets := []geom.Rect{
		geom.R(20, 28, 30, 38),
		geom.R(60, 68, 70, 78),
	}
	points := make([]geom.Point, n)
	labels := make([]bool, n)
	for i := range points {
		p := geom.Point{rng.Float64() * 100, rng.Float64() * 100}
		points[i] = p
		for _, t := range targets {
			if t.Contains(p) {
				labels[i] = true
			}
		}
	}
	return points, labels
}

func BenchmarkTrain500(b *testing.B) {
	points, labels := trainingSet(500, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(points, labels, DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrain2000(b *testing.B) {
	points, labels := trainingSet(2000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(points, labels, DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	points, labels := trainingSet(2000, 1)
	tree, err := Train(points, labels, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	p := geom.Point{50, 50}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Predict(p)
	}
}

func BenchmarkRelevantAreas(b *testing.B) {
	points, labels := trainingSet(2000, 1)
	tree, err := Train(points, labels, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	bounds := geom.NewRect(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.RelevantAreas(bounds)
	}
}

func BenchmarkMergeAreas(b *testing.B) {
	points, labels := trainingSet(2000, 1)
	tree, err := Train(points, labels, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	areas := tree.RelevantAreas(geom.NewRect(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeAreas(areas)
	}
}

// BenchmarkSetRetrain is a steering session's training cost: one op
// grows a fresh Set from 20 to 1 600 session-shaped 4-D points, 20 per
// retrain, retraining after each batch (80 retrains). ns/retrain reads
// beside BenchmarkTrain2000's one-shot ns/op.
func BenchmarkSetRetrain(b *testing.B) {
	const batch, total = 20, 1600
	points, labels := randomTrainingSet(total, 4, 1)
	params := DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var set Set
		for n := batch; n <= total; n += batch {
			if _, err := set.Train(context.Background(), points[:n], labels[:n], nil, params); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*total/batch), "ns/retrain")
}
