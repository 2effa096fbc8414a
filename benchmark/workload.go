package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"github.com/explore-by-example/aide/internal/dataset"
	"github.com/explore-by-example/aide/internal/service"
)

// workload is one traffic mix: a server topology plus the sessions the
// simulated users run against it. The table in README.md says why each
// exists; BENCHMARK.json carries the one-line version.
type workload struct {
	Name string
	// Family seeds the dataset, the sessions and their hidden targets, so
	// workloads of one family (local-3m, remote-3m) run identical sessions.
	Family string
	Rows   int
	Attrs  []string // exploration attributes (-sdss-attrs)
	// TargetDims is how many leading Attrs the hidden target constrains.
	TargetDims int
	Areas      int
	// WidthLo/WidthHi bound each target area's width per constrained
	// attribute, as a share of the attribute's domain (the paper's size
	// classes: medium 4-6%, large 7-9%).
	WidthLo, WidthHi float64
	MaxIter          int
	Discovery        string
	Clients          int
	Workers          int  // remote aideshard processes, one shard each (0: unsharded)
	Durable          bool // -data-dir <tmp> -fsync always
	// Setups is how many times an untraced run sets the topology up;
	// setup_s is their median, the last one serves the sessions. As many
	// as keep a 10 s run under 30 s of wall time: a set-up of the 150k-row
	// workloads takes 60 ms, one of remote-3m 6 s.
	Setups int
	// Warmup is how many untimed sessions each client runs first. One
	// fills the small servers' caches; the 3M-row processes take about
	// four sessions to reach the heap size and pool state they then keep.
	Warmup int
	// Abandon is how many sessions a client opens and abandons after each
	// timed session of an untraced run, for first_sample_ms (see drive).
	Abandon int
	// TracedSessions is the fixed session count of the traced run; fixed
	// work is what lets its per-iteration counts repeat exactly.
	TracedSessions int
}

const samplesPerIteration = 20

var workloads = []workload{
	{Name: "floor-150k", Family: "150k", Rows: 150_000, Attrs: []string{"rowc", "colc"}, TargetDims: 2,
		Areas: 1, WidthLo: 0.04, WidthHi: 0.06, MaxIter: 40, Clients: 1, Setups: 5, Warmup: 1, Abandon: 1, TracedSessions: 15},
	{Name: "local-3m", Family: "3m", Rows: 3_000_000, Attrs: []string{"rowc", "colc", "ra", "dec"}, TargetDims: 2,
		Areas: 5, WidthLo: 0.07, WidthHi: 0.09, MaxIter: 80, Clients: 1, Setups: 2, Warmup: 4, Abandon: 5, TracedSessions: 3},
	{Name: "remote-3m", Family: "3m", Rows: 3_000_000, Attrs: []string{"rowc", "colc", "ra", "dec"}, TargetDims: 2,
		Areas: 5, WidthLo: 0.07, WidthHi: 0.09, MaxIter: 80, Clients: 1, Workers: 2, Setups: 1, Warmup: 4, Abandon: 5, TracedSessions: 3},
	{Name: "durable-churn", Family: "churn", Rows: 150_000, Attrs: []string{"rowc", "colc"}, TargetDims: 2,
		Areas: 1, WidthLo: 0.04, WidthHi: 0.06, MaxIter: 8, Clients: 2, Durable: true, Setups: 5, Warmup: 1, TracedSessions: 60},
	{Name: "skew-cluster", Family: "skew", Rows: 1_000_000, Attrs: []string{"ra", "dec"}, TargetDims: 2,
		Areas: 1, WidthLo: 0.04, WidthHi: 0.06, MaxIter: 10, Discovery: "clustering", Clients: 1, Setups: 5, Warmup: 1, TracedSessions: 12},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// deriveSeed mixes the run seed, a stream name and an index into an
// independent positive seed (splitmix64 finalizer).
func deriveSeed(seed int64, stream string, index int) int64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ h.Sum64() ^ uint64(int64(index))*0xD1B54A32D192ED03
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}

func (w workload) datasetSeed(seed int64) int64 { return deriveSeed(seed, w.Family+"/dataset", 0) }

// rawRect is a hidden-target area in raw attribute space, one closed
// interval per constrained attribute.
type rawRect []service.Bounds

// sessionSpec is everything one simulated user needs: the creation
// request and the hidden target it labels against.
type sessionSpec struct {
	Index  int
	Req    service.CreateSessionRequest
	Target []rawRect
	// cols are the table columns the target constrains, parallel to each
	// rawRect's intervals.
	cols [][]float64
}

// relevant is the simulated user's answer for a table row.
func (s sessionSpec) relevant(row int) bool {
	return inAny(s.cols, s.Target, row)
}

func inAny(cols [][]float64, areas []rawRect, row int) bool {
	for _, a := range areas {
		in := true
		for d, col := range cols {
			if v := col[row]; v < a[d].Lo || v > a[d].Hi {
				in = false
				break
			}
		}
		if in {
			return true
		}
	}
	return false
}

// session builds the index'th session of the workload for a run seed;
// negative indexes are the warm-up sessions.
// Each target area is centred on a seeded random row, so no area is
// empty however skewed the attributes are, and areas keep a margin of 2%
// of the domain between them as the paper's disjunctive targets do.
func (w workload) session(tab *dataset.Table, seed int64, index int) (sessionSpec, error) {
	sseed := deriveSeed(seed, w.Family+"/session", index)
	spec := sessionSpec{
		Index: index,
		Req: service.CreateSessionRequest{
			View:                "sdss",
			Seed:                sseed,
			SamplesPerIteration: samplesPerIteration,
			MaxIterations:       w.MaxIter,
			Discovery:           w.Discovery,
		},
	}
	cols, err := tab.ColumnIndexes(w.Attrs[:w.TargetDims])
	if err != nil {
		return spec, err
	}
	for _, c := range cols {
		spec.cols = append(spec.cols, tab.Col(c))
	}
	schema := tab.Schema()
	rng := rand.New(rand.NewSource(sseed))
	const maxTries = 10000
	for try := 0; len(spec.Target) < w.Areas; try++ {
		if try == maxTries {
			return spec, fmt.Errorf("workload %s: could not place %d disjoint areas", w.Name, w.Areas)
		}
		row := rng.Intn(tab.NumRows())
		area := make(rawRect, len(cols))
		for d, c := range cols {
			dom := schema[c].Max - schema[c].Min
			width := (w.WidthLo + rng.Float64()*(w.WidthHi-w.WidthLo)) * dom
			lo := tab.Value(row, c) - width/2
			if lo < schema[c].Min {
				lo = schema[c].Min
			}
			if lo+width > schema[c].Max {
				lo = schema[c].Max - width
			}
			area[d] = service.Bounds{Lo: lo, Hi: lo + width}
		}
		if !clearOf(area, spec.Target, schema, cols) {
			continue
		}
		spec.Target = append(spec.Target, area)
	}
	return spec, nil
}

// clearOf reports whether area keeps the 2%-of-domain margin from every
// placed area.
func clearOf(area rawRect, placed []rawRect, schema dataset.Schema, cols []int) bool {
	for _, p := range placed {
		apart := false
		for d, c := range cols {
			margin := 0.02 * (schema[c].Max - schema[c].Min)
			if area[d].Lo > p[d].Hi+margin || area[d].Hi < p[d].Lo-margin {
				apart = true
				break
			}
		}
		if !apart {
			return false
		}
	}
	return true
}

// fMeasure scores predicted raw-space areas (over every exploration
// attribute, as PredictedQuery returns them) against the hidden target
// by one pass over the regenerated table.
func (w workload) fMeasure(tab *dataset.Table, spec sessionSpec, predicted [][]service.Bounds) (float64, error) {
	idx, err := tab.ColumnIndexes(w.Attrs)
	if err != nil {
		return 0, err
	}
	allCols := make([][]float64, len(idx))
	for i, c := range idx {
		allCols[i] = tab.Col(c)
	}
	pred := make([]rawRect, len(predicted))
	for i, a := range predicted {
		if len(a) != len(allCols) {
			return 0, fmt.Errorf("predicted area has %d attributes, view has %d", len(a), len(allCols))
		}
		pred[i] = rawRect(a)
	}
	var tp, fp, fn int
	for row := 0; row < tab.NumRows(); row++ {
		want := inAny(spec.cols, spec.Target, row)
		got := inAny(allCols, pred, row)
		switch {
		case want && got:
			tp++
		case got:
			fp++
		case want:
			fn++
		}
	}
	if tp == 0 {
		return 0, nil
	}
	precision := float64(tp) / float64(tp+fp)
	recall := float64(tp) / float64(tp+fn)
	return 2 * precision * recall / (precision + recall), nil
}
